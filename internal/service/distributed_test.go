package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asiccloud/internal/cloud"
	"asiccloud/internal/core"
	"asiccloud/internal/obs"
)

// distRequest is a real bitcoin sweep with enough geometries to split
// into several chunks at small chunk sizes.
func distRequest(t *testing.T) *Request {
	t.Helper()
	var req Request
	err := json.Unmarshal([]byte(
		`{"app":"bitcoin","sweep":{"voltages_v":[0.55,0.6],"silicon_per_lane_mm2":[30,50,70],"chips_per_lane":[1,2]}}`,
	), &req)
	if err != nil {
		t.Fatal(err)
	}
	return &req
}

// startCoordinator runs RunCoordinator against a fresh loopback
// listener and returns the pool address plus a channel carrying the
// rendered result bytes.
func startCoordinator(t *testing.T, ctx context.Context, req *Request, opts CoordinatorOptions) (string, <-chan []byte, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte, 1)
	errc := make(chan error, 1)
	go func() {
		b, err := RunCoordinator(ctx, req, ln, obs.NewRecorder(), opts)
		out <- b
		errc <- err
	}()
	return ln.Addr().String(), out, errc
}

// TestDistributedMatchesRunOnce is the tentpole acceptance check in
// process form: a coordinator fanning chunks out to a three-worker
// fleet renders byte-identical result JSON to the single-process run.
func TestDistributedMatchesRunOnce(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req := distRequest(t)
	want, err := RunOnce(ctx, req, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	addr, out, errc := startCoordinator(t, ctx, req, CoordinatorOptions{ChunkSize: 2})
	// Three workers, each with its own engine — separate thermal-plan
	// caches, as separate processes would have. Barrier: each worker's
	// first handler call waits until all three have entered the
	// handler, so two workers cannot finish the three chunks, and the
	// coordinator close its listener, before the third has dialed. The
	// timeout bounds a worker that never arrives; its error is then
	// reported below.
	const workers = 3
	var entered atomic.Int32
	allIn := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			chunk := NewChunkHandler(core.NewEngine(nil), nil, nil)
			first := true
			h := func(j cloud.Job) ([]byte, error) {
				if first {
					first = false
					if entered.Add(1) == workers {
						close(allIn)
					}
					select {
					case <-allIn:
					case <-time.After(10 * time.Second):
					}
				}
				return chunk(j)
			}
			if _, err := cloud.RunWorker(ctx, addr, "w", h); err != nil {
				t.Errorf("worker %d: %v", id, err)
			}
		}(w)
	}
	wg.Wait()
	got := <-out
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("distributed result differs from single-process run:\nonce: %s\ndist: %s", want, got)
	}
}

// TestDistributedSurvivesWorkerDeath kills a worker that is sitting on
// a chunk; the lease expires, the chunk is requeued to the healthy
// fleet, and the final bytes still match the single-process run.
func TestDistributedSurvivesWorkerDeath(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req := distRequest(t)
	want, err := RunOnce(ctx, req, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	addr, out, errc := startCoordinator(t, ctx, req, CoordinatorOptions{
		ChunkSize:     2,
		LeaseDuration: 50 * time.Millisecond,
	})

	// The doomed worker takes one chunk and hangs until "killed" (its
	// context canceled closes the connection mid-hold).
	grabbed := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	doomedCtx, kill := context.WithCancel(ctx)
	defer kill()
	go func() {
		_, _ = cloud.RunWorker(doomedCtx, addr, "doomed", func(cloud.Job) ([]byte, error) {
			close(grabbed)
			<-release
			return nil, errors.New("stalled")
		})
	}()
	select {
	case <-grabbed:
	case <-ctx.Done():
		t.Fatal("doomed worker never received a chunk")
	}
	kill()

	if _, err := cloud.RunFleet(ctx, addr, "healthy", 2, NewChunkHandler(core.NewEngine(nil), nil, nil)); err != nil {
		t.Fatalf("healthy fleet: %v", err)
	}
	got := <-out
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Error("result after worker death differs from single-process run")
	}
}

// TestChunkHandlerRejectsHashMismatch: a worker whose canonicalization
// disagrees with the coordinator's hash must refuse the chunk rather
// than contribute to the merge.
func TestChunkHandlerRejectsHashMismatch(t *testing.T) {
	req := distRequest(t)
	payload, err := json.Marshal(chunkPayload{
		Request:     *req,
		RequestHash: "sha256:not-the-real-hash",
		ChunkSize:   2,
		Chunk:       0,
		NumChunks:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := NewChunkHandler(core.NewEngine(nil), nil, nil)
	_, err = h(cloud.Job{ID: 1, Payload: payload})
	if err == nil || !strings.Contains(err.Error(), "hash mismatch") {
		t.Errorf("want hash mismatch error, got %v", err)
	}
}

// TestChunkHandlerRejectsGarbage covers the two remaining refusal
// paths: an undecodable payload and an out-of-range chunk index.
func TestChunkHandlerRejectsGarbage(t *testing.T) {
	h := NewChunkHandler(core.NewEngine(nil), nil, nil)
	if _, err := h(cloud.Job{ID: 1, Payload: []byte("not json")}); err == nil {
		t.Error("garbage payload should fail")
	}

	req := distRequest(t)
	can, err := Canonicalize(req)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(chunkPayload{
		Request:     *req,
		RequestHash: can.Hash(),
		ChunkSize:   2,
		Chunk:       10000,
		NumChunks:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h(cloud.Job{ID: 1, Payload: payload}); err == nil {
		t.Error("out-of-range chunk should fail")
	}
}

// TestCoordinatorSurfacesChunkFailure: a handler error on any chunk
// aborts the run with a descriptive error instead of hanging or
// silently dropping the chunk.
func TestCoordinatorSurfacesChunkFailure(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	addr, out, errc := startCoordinator(t, ctx, distRequest(t), CoordinatorOptions{ChunkSize: 2})

	// The coordinator aborts on the first failed chunk and tears the
	// pool down, so the worker may see either a clean drain or an
	// unexpected disconnect — ignore its exit.
	broken := func(cloud.Job) ([]byte, error) { return nil, errors.New("solder bridge") }
	_, _ = cloud.RunWorker(ctx, addr, "broken", broken)
	<-out
	err := <-errc
	if err == nil || !strings.Contains(err.Error(), "solder bridge") {
		t.Errorf("want chunk failure surfaced, got %v", err)
	}
}

// TestCoordinatorRejectsBadRequest: request validation fails before any
// pool machinery spins up.
func TestCoordinatorRejectsBadRequest(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var req Request
	req.App = "no-such-app"
	if _, err := RunCoordinator(context.Background(), &req, ln, nil, CoordinatorOptions{}); err == nil {
		t.Error("unknown app should fail")
	}
}

// TestPlanForPartition sanity-checks the helper tests and CLIs use to
// inspect the partition a request resolves to.
func TestPlanForPartition(t *testing.T) {
	plan, _, _, err := planFor(distRequest(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Geometries() != 6 {
		t.Errorf("geometries = %d, want 6", plan.Geometries())
	}
	if plan.NumChunks() != 3 {
		t.Errorf("chunks = %d, want 3", plan.NumChunks())
	}
}

// chunkJob is job c+1 of the request's partition into chunks of size
// geometries, as RunCoordinator would serve it.
func chunkJob(t *testing.T, req *Request, size, c int) cloud.Job {
	t.Helper()
	can, err := Canonicalize(req)
	if err != nil {
		t.Fatal(err)
	}
	plan, _, _, err := planFor(req, size)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(chunkPayload{
		Request:     *req,
		RequestHash: can.Hash(),
		ChunkSize:   size,
		Chunk:       c,
		NumChunks:   plan.NumChunks(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return cloud.Job{ID: uint64(c + 1), Payload: payload}
}

// TestChunkHandlerChecksPartition: a worker refuses a chunk whose
// payload counts a different number of chunks than its own plan of the
// sweep, and answers a consistent one with that chunk of that plan.
func TestChunkHandlerChecksPartition(t *testing.T) {
	req := distRequest(t)
	h := NewChunkHandler(core.NewEngine(nil), nil, nil)
	job := chunkJob(t, req, 2, 1)
	out, err := h(job)
	if err != nil {
		t.Fatal(err)
	}
	var cr core.ChunkResult
	if err := json.Unmarshal(out, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Chunk != 1 || cr.NumChunks != 3 {
		t.Errorf("answered chunk %d of %d, want 1 of 3", cr.Chunk, cr.NumChunks)
	}

	var p chunkPayload
	if err := json.Unmarshal(job.Payload, &p); err != nil {
		t.Fatal(err)
	}
	p.NumChunks = 4
	if job.Payload, err = json.Marshal(p); err != nil {
		t.Fatal(err)
	}
	_, err = h(job)
	if err == nil || !strings.Contains(err.Error(), "partition") {
		t.Errorf("want a partition mismatch error, got %v", err)
	}
}

// TestChunkHandlerSharesPlanAcrossGoroutines: one handler, as RunFleet
// shares it, serves chunks of two sweeps and two partitions from
// several goroutines at once, switching its plan between them, and
// every answer equals a fresh handler's.
func TestChunkHandlerSharesPlanAcrossGoroutines(t *testing.T) {
	req, other := distRequest(t), distRequest(t)
	other.Sweep.ChipsPerLane = []int{2, 3}
	var jobs []cloud.Job
	for c := 0; c < 3; c++ {
		jobs = append(jobs, chunkJob(t, req, 2, c), chunkJob(t, other, 2, c))
	}
	for c := 0; c < 2; c++ {
		jobs = append(jobs, chunkJob(t, req, 4, c))
	}
	want := make([][]byte, len(jobs))
	for i, j := range jobs {
		out, err := NewChunkHandler(core.NewEngine(nil), nil, nil)(j)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}

	h := NewChunkHandler(core.NewEngine(nil), nil, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range jobs {
				i := (k + g) % len(jobs)
				out, err := h(jobs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(out, want[i]) {
					t.Errorf("goroutine %d: job %d answered differently from a fresh handler", g, i)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCoordinatorRejectsShiftedChunk: a worker that answers job c+1
// with another chunk (here the next one) fails the sweep instead of
// having a chunk merged twice and another never.
func TestCoordinatorRejectsShiftedChunk(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	addr, out, errc := startCoordinator(t, ctx, distRequest(t), CoordinatorOptions{ChunkSize: 2})

	honest := NewChunkHandler(core.NewEngine(nil), nil, nil)
	shifted := func(j cloud.Job) ([]byte, error) {
		b, err := honest(j)
		if err != nil {
			return nil, err
		}
		var cr core.ChunkResult
		if err := json.Unmarshal(b, &cr); err != nil {
			return nil, err
		}
		cr.Chunk = (cr.Chunk + 1) % cr.NumChunks
		return json.Marshal(cr)
	}
	// As in TestCoordinatorSurfacesChunkFailure, the worker's own exit
	// depends on when the coordinator tears the pool down.
	_, _ = cloud.RunWorker(ctx, addr, "shifty", shifted)
	<-out
	err := <-errc
	if err == nil || !strings.Contains(err.Error(), "answered chunk") {
		t.Errorf("want the shifted chunk refused, got %v", err)
	}
}
