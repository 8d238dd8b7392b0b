// Fixture for the foldorder analyzer: fan-in results reaching canonical
// outputs without a canonical sort.
package fixture

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

type result struct {
	ID  int
	TCO float64
}

// --- positives ---------------------------------------------------------

// drainUnsorted collects worker results in arrival order and marshals.
func drainUnsorted(ch <-chan result, n int) ([]byte, error) {
	var out []result
	for i := 0; i < n; i++ {
		out = append(out, <-ch)
	}
	return json.Marshal(out) // want: fold-order reaches json.Marshal
}

// rangeDrain drains by ranging over the channel.
func rangeDrain(ch chan result) ([]byte, error) {
	var out []result
	for r := range ch {
		out = append(out, r)
	}
	return json.Marshal(out) // want: fold-order reaches json.Marshal
}

// goAppend appends from spawned goroutines: interleaving order, even
// under a lock, is nondeterministic.
func goAppend(points []float64) ([]byte, error) {
	var mu sync.Mutex
	var out []float64
	var wg sync.WaitGroup
	for _, p := range points {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			out = append(out, p*2)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return json.Marshal(out) // want: goroutine-order reaches json.Marshal
}

// selectDrain receives through a select comm clause.
func selectDrain(a, b <-chan result, n int) ([]byte, error) {
	var out []result
	for i := 0; i < n; i++ {
		select {
		case r := <-a:
			out = append(out, r)
		case r := <-b:
			out = append(out, r)
		}
	}
	return json.Marshal(out) // want: fold-order reaches json.Marshal
}

// floatFold folds arriving TCO values into a float64 total: IEEE
// addition is order-sensitive, so arrival order leaks into the bytes.
func floatFold(ch <-chan result, n int, w io.Writer) error {
	total := 0.0
	for i := 0; i < n; i++ {
		r := <-ch
		total += r.TCO
	}
	return json.NewEncoder(w).Encode(total) // want: fold-order reaches Encode
}

// emitFrontier is a canonical emitter: a bare received value (marker,
// no accumulation) already violates its strict contract.
//
//asic:canonical
func emitFrontier(w io.Writer, ch <-chan result) {
	r := <-ch
	fmt.Fprintf(w, "%d,%g\n", r.ID, r.TCO) // want: chan-elem reaches canonical write (strict, twice)
}

// throughCollector reaches the sink through a module-local helper.
func throughCollector(ch chan result, w io.Writer) error {
	return json.NewEncoder(w).Encode(collect(ch)) // want: fold-order reaches Encode via collect
}

func collect(ch chan result) []result {
	var out []result
	for r := range ch {
		out = append(out, r)
	}
	return out
}

// --- negatives ---------------------------------------------------------

// drainSorted is the sanctioned idiom: drain, sort canonically, emit.
func drainSorted(ch <-chan result, n int) ([]byte, error) {
	var out []result
	for i := 0; i < n; i++ {
		out = append(out, <-ch)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return json.Marshal(out)
}

// singleHandoff marshals one value from a one-shot channel: nothing is
// accumulated, so arrival order cannot matter.
func singleHandoff(done <-chan result) ([]byte, error) {
	r := <-done
	return json.Marshal(r)
}

// countDrain folds arrivals into an int: integer addition commutes.
func countDrain(ch <-chan result, n int) ([]byte, error) {
	seen := 0
	for i := 0; i < n; i++ {
		<-ch
		seen++
	}
	return json.Marshal(seen)
}

// indexedScatter writes results into pre-assigned slots: each goroutine
// owns its index, so the final content is deterministic. The capture
// hook still taints out conservatively — the analyzer cannot prove slot
// ownership — but the sort.Float64s restores a canonical order (where
// a sort costs too much, a foldorder suppression at the sink does).
func indexedScatter(points []float64) ([]byte, error) {
	out := make([]float64, len(points))
	var wg sync.WaitGroup
	for i, p := range points {
		i, p := i, p
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = p * 2
		}()
	}
	wg.Wait()
	sort.Float64s(out)
	return json.Marshal(out)
}

// collectSorted sorts the collector's result before emitting.
func collectSorted(ch chan result, w io.Writer) error {
	rs := collect(ch)
	sort.Slice(rs, func(i, j int) bool { return rs[i].ID < rs[j].ID })
	return json.NewEncoder(w).Encode(rs)
}
