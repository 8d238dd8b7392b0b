package core

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"asiccloud/internal/server"
	"asiccloud/internal/tco"
)

func checkAccounting(t *testing.T, s PruneSummary) {
	t.Helper()
	if s.Generated != s.Feasible+s.PrunedTotal() {
		t.Fatalf("accounting broken: generated %d != feasible %d + pruned %d (%s)",
			s.Generated, s.Feasible, s.PrunedTotal(), s)
	}
}

func TestExploreContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := NewEngine(nil).ExploreContext(ctx, smallSweep(), tco.Default())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if res.Pruned.Feasible != 0 {
		t.Fatalf("pre-cancelled exploration produced %d feasible points", res.Pruned.Feasible)
	}
	checkAccounting(t, res.Pruned)
}

func TestExploreContextCancelMidRun(t *testing.T) {
	// The full Bitcoin space takes long enough that a 5 ms deadline
	// reliably interrupts it; the contract is a prompt return (within
	// one geometry's work, not the whole sweep) with exact partial
	// accounting.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	sweep := Sweep{Base: server.Default(bitcoinRCA()), Stacked: true}
	start := time.Now()
	res, err := NewEngine(nil).ExploreContext(ctx, sweep, tco.Default())
	elapsed := time.Since(start)
	if err == nil {
		t.Skip("machine finished the full sweep inside the deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("abort took %v, want well under the full sweep's duration", elapsed)
	}
	checkAccounting(t, res.Pruned)
}

func TestEnginePlanCacheHitIdentical(t *testing.T) {
	eng := NewEngine(nil)
	cold, err := eng.Explore(smallSweep(), tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	st := eng.CacheStats()
	if st.Misses == 0 || st.Entries == 0 {
		t.Fatalf("cold run should populate the cache: %+v", st)
	}
	if st.Hits != 0 {
		t.Fatalf("geometries are deduplicated, so a cold run has no hits: %+v", st)
	}
	warm, err := eng.Explore(smallSweep(), tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	st2 := eng.CacheStats()
	if st2.Hits == 0 {
		t.Fatalf("warm run should hit the cache: %+v", st2)
	}
	if st2.Misses != st.Misses {
		t.Fatalf("warm run recomputed plans: %+v -> %+v", st, st2)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm-cache result differs from cold result")
	}
	fresh, err := NewEngine(nil).Explore(smallSweep(), tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, fresh) {
		t.Fatal("shared-engine result differs from fresh-engine result")
	}
}

func TestEngineDiscardPointsIdentity(t *testing.T) {
	full, err := NewEngine(nil).Explore(smallSweep(), tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(len(full.Points)); got != full.Pruned.Feasible {
		t.Fatalf("retained %d points, want Pruned.Feasible = %d", got, full.Pruned.Feasible)
	}
	eng := NewEngine(nil)
	eng.DiscardPoints = true
	lean, err := eng.Explore(smallSweep(), tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	if lean.Points != nil {
		t.Fatalf("DiscardPoints retained %d points", len(lean.Points))
	}
	requireResultsIdentical(t, full, lean)
}

// TestExplorePointsIndependentOfSchedule pins Result.Points, order
// included, across worker counts and chunk sizes (7 leaves a short
// final chunk): retained points are the chunk-order concatenation
// sorted by lessPoint, whoever evaluated each chunk.
func TestExplorePointsIndependentOfSchedule(t *testing.T) {
	sweep := smallSweep()
	sweep.Stacked = true
	var want Result
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		for _, size := range []int{1, 4, 7} {
			eng := NewEngine(nil)
			eng.Workers, eng.ChunkSize = workers, size
			got, err := eng.Explore(sweep, tco.Default())
			if err != nil {
				t.Fatal(err)
			}
			if n := int64(len(got.Points)); n != got.Pruned.Feasible {
				t.Fatalf("workers %d, chunk %d: %d points, want Pruned.Feasible = %d",
					workers, size, n, got.Pruned.Feasible)
			}
			if want.Points == nil {
				want = got
				continue
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("workers %d, chunk %d: result differs from workers 1, chunk 1", workers, size)
			}
		}
	}
}

// TestExploreAbortAccounting cancels a sweep from its own Progress
// callback, so the abort lands mid-sweep on every machine, and checks
// the partial accounting in both point modes.
func TestExploreAbortAccounting(t *testing.T) {
	for _, discard := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		sweep := smallSweep()
		sweep.Progress = func(done, total int) {
			if done == total/2 {
				cancel()
			}
		}
		eng := NewEngine(nil)
		eng.DiscardPoints = discard
		res, err := eng.ExploreContext(ctx, sweep, tco.Default())
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("discard=%v: err = %v, want wrapped context.Canceled", discard, err)
		}
		checkAccounting(t, res.Pruned)
		if res.Pruned.Generated == 0 || res.Points != nil || res.Frontier != nil {
			t.Errorf("discard=%v: aborted result should carry only the partial accounting: %s, %d points, %d frontier",
				discard, res.Pruned, len(res.Points), len(res.Frontier))
		}
	}
}

func TestExploreUnsortedVoltagesMatchSorted(t *testing.T) {
	sorted := smallSweep()
	shuffled := smallSweep()
	// Reverse and duplicate: the thermal early break assumes ascending
	// order, so before normalization this grid pruned low feasible
	// voltages whenever a high one failed first.
	n := len(sorted.Voltages)
	shuffled.Voltages = make([]float64, 0, 2*n)
	for i := n - 1; i >= 0; i-- {
		shuffled.Voltages = append(shuffled.Voltages, sorted.Voltages[i])
	}
	shuffled.Voltages = append(shuffled.Voltages, sorted.Voltages[n/2], sorted.Voltages[0])
	a, err := Explore(sorted, tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Explore(shuffled, tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("unsorted/duplicated voltage grid changed the result: %s vs %s", a.Pruned, b.Pruned)
	}
}

func TestFindTCOOptimalHonorsSparseVoltageSet(t *testing.T) {
	sweep := smallSweep()
	// Irregular and unsorted: two clusters with a hole the old dense
	// rebuild would have filled with invented voltages.
	sweep.Voltages = []float64{0.62, 0.40, 0.42, 0.44, 0.46, 0.48, 0.60, 0.64, 0.44}
	fast, err := FindTCOOptimal(sweep, tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	inSet := false
	for _, v := range sweep.Voltages {
		if math.Abs(fast.Config.Voltage-v) < 1e-12 {
			inSet = true
		}
	}
	if !inSet {
		t.Fatalf("fast path chose %.3f V, not in the supplied set %v",
			fast.Config.Voltage, sweep.Voltages)
	}
	brute, err := Explore(sweep, tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	if fast.TCOPerOp() > brute.TCOOptimal.TCOPerOp()*1.005 {
		t.Fatalf("fast TCO %.4f vs brute %.4f: disagreement beyond tolerance",
			fast.TCOPerOp(), brute.TCOOptimal.TCOPerOp())
	}
	if math.Abs(fast.Config.Voltage-brute.TCOOptimal.Config.Voltage) > 1e-12 {
		t.Fatalf("fast path voltage %.3f != brute-force voltage %.3f",
			fast.Config.Voltage, brute.TCOOptimal.Config.Voltage)
	}
}

func TestInvalidVoltagesRejected(t *testing.T) {
	for _, bad := range [][]float64{
		{0.5, -0.1},
		{0.0, 0.5},
		{0.5, math.NaN()},
		{0.45, 0.5, 5.0}, // outside the RCA's operating range
	} {
		sweep := smallSweep()
		sweep.Voltages = bad
		if _, err := Explore(sweep, tco.Default()); err == nil {
			t.Errorf("Explore accepted voltage grid %v", bad)
		}
		if _, err := FindTCOOptimal(sweep, tco.Default()); err == nil {
			t.Errorf("FindTCOOptimal accepted voltage grid %v", bad)
		}
		if _, err := FindCarbonOptimal(sweep, tco.Default()); err == nil {
			t.Errorf("FindCarbonOptimal accepted voltage grid %v", bad)
		}
	}
}

// TestFastPathHonorsStacked: the fast path resolves the sweep as
// Explore does, stacking options included, so on the stacked Bitcoin
// space both fast results equal Explore's optima exactly.
func TestFastPathHonorsStacked(t *testing.T) {
	sweep := Sweep{Base: server.Default(bitcoinRCA()), Stacked: true}
	full, err := Explore(sweep, tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	fastTCO, err := FindTCOOptimal(sweep, tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fastTCO, full.TCOOptimal) {
		t.Errorf("FindTCOOptimal = %.3f TCO/op (stacked %v), Explore = %.3f (stacked %v)",
			fastTCO.TCOPerOp(), fastTCO.Config.Stacked,
			full.TCOOptimal.TCOPerOp(), full.TCOOptimal.Config.Stacked)
	}
	fastCO2, err := FindCarbonOptimal(sweep, tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fastCO2, full.CarbonOptimal) {
		t.Errorf("FindCarbonOptimal = %.4g CO2e/op (stacked %v), Explore = %.4g (stacked %v)",
			fastCO2.CO2PerOp(), fastCO2.Config.Stacked,
			full.CarbonOptimal.CO2PerOp(), full.CarbonOptimal.Config.Stacked)
	}
}

func TestStackedEarlyBreakAccounting(t *testing.T) {
	sweep := smallSweep()
	sweep.Stacked = true
	res, err := Explore(sweep, tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, res.Pruned)
	if res.Pruned.Reasons[PruneThermal] == 0 {
		t.Fatal("expected thermal prunes (early break) in the stacked sweep")
	}
}

func TestNormalizeVoltages(t *testing.T) {
	got, err := NormalizeVoltages([]float64{0.5, 0.4, 0.5, 0.45, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.4, 0.45, 0.5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("NormalizeVoltages = %v, want %v", got, want)
	}
}

// voltageBytes is FuzzNormalizeVoltages' input encoding of vs: each
// value's IEEE 754 bits, little-endian, eight bytes apiece.
func voltageBytes(vs ...float64) []byte {
	b := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// FuzzNormalizeVoltages checks the canonical form of every voltage grid
// a request carries: an error exactly when some input is NaN or <= 0;
// otherwise a strictly ascending grid holding exactly the distinct
// inputs, left unchanged by a second call, with the input untouched.
// The fuzz input is read as float64 bit patterns (voltageBytes), so
// NaN payloads, signed zeros, infinities and subnormals all reach it.
func FuzzNormalizeVoltages(f *testing.F) {
	f.Add(voltageBytes(0.5, 0.4, 0.5, 0.45, 0.4))
	f.Add(voltageBytes(0.45, math.Copysign(0, -1), 0.5))
	f.Add(voltageBytes(math.Inf(1), 0.4, math.SmallestNonzeroFloat64, math.Inf(1)))
	f.Fuzz(func(t *testing.T, b []byte) {
		vs := make([]float64, len(b)/8)
		for i := range vs {
			vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		in := slices.Clone(vs)
		out, err := NormalizeVoltages(vs)
		if !slices.Equal(voltageBytes(vs...), voltageBytes(in...)) {
			t.Fatalf("NormalizeVoltages modified its input %v to %v", in, vs)
		}
		invalid := slices.ContainsFunc(vs, func(v float64) bool { return math.IsNaN(v) || v <= 0 })
		if (err != nil) != invalid {
			t.Fatalf("NormalizeVoltages(%v) error = %v; want an error exactly when an input is NaN or <= 0", vs, err)
		}
		if err != nil {
			return
		}
		for i := 1; i < len(out); i++ {
			if !(out[i-1] < out[i]) {
				t.Fatalf("NormalizeVoltages(%v) = %v, not strictly ascending", vs, out)
			}
		}
		for _, v := range vs {
			if !slices.Contains(out, v) {
				t.Fatalf("NormalizeVoltages(%v) = %v, lost input %v", vs, out, v)
			}
		}
		for _, v := range out {
			if !slices.Contains(vs, v) {
				t.Fatalf("NormalizeVoltages(%v) = %v, invented %v", vs, out, v)
			}
		}
		again, err := NormalizeVoltages(out)
		if err != nil || !slices.Equal(again, out) {
			t.Fatalf("NormalizeVoltages(%v) = %v, %v; want it unchanged", out, again, err)
		}
	})
}
