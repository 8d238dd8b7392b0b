package cloud

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asiccloud/internal/apps/bitcoin"
)

// startPool launches a pool on a loopback listener and returns its
// address and a stop function.
func startPool(t *testing.T, p *Pool) (string, func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = p.Serve(ctx, l)
	}()
	return l.Addr().String(), func() {
		cancel()
		<-done
	}
}

func makeJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		payload := make([]byte, 8)
		binary.LittleEndian.PutUint64(payload, uint64(i))
		jobs[i] = Job{ID: uint64(i + 1), Payload: payload}
	}
	return jobs
}

// echoHandler doubles the payload value.
func echoHandler(j Job) ([]byte, error) {
	v := binary.LittleEndian.Uint64(j.Payload)
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, v*2)
	return out, nil
}

func TestSingleWorkerDrainsPool(t *testing.T) {
	p := NewPool(makeJobs(20))
	addr, stop := startPool(t, p)
	defer stop()

	n, err := RunWorker(context.Background(), addr, "w1", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Errorf("worker completed %d jobs, want 20", n)
	}
	s := p.Stats()
	if s.JobsDone != 20 || s.JobsFailed != 0 {
		t.Errorf("stats = %+v, want 20 done", s)
	}
	if s.WorkerResults["w1"] != 20 {
		t.Errorf("w1 results = %d, want 20", s.WorkerResults["w1"])
	}
	if p.Remaining() != 0 {
		t.Errorf("remaining = %d, want 0", p.Remaining())
	}
}

func TestResultsContent(t *testing.T) {
	p := NewPool(makeJobs(5))
	addr, stop := startPool(t, p)
	defer stop()
	if _, err := RunWorker(context.Background(), addr, "w1", echoHandler); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]uint64{}
	for i := 0; i < 5; i++ {
		select {
		case r := <-p.Results():
			seen[r.JobID] = binary.LittleEndian.Uint64(r.Output)
		case <-time.After(2 * time.Second):
			t.Fatal("timed out waiting for results")
		}
	}
	for id, out := range seen {
		if out != (id-1)*2 {
			t.Errorf("job %d output = %d, want %d", id, out, (id-1)*2)
		}
	}
}

func TestManyWorkersShareLoad(t *testing.T) {
	const jobs, workers = 60, 4
	p := NewPool(makeJobs(jobs))
	addr, stop := startPool(t, p)
	defer stop()

	// Barrier: each worker's first handler call waits until all workers
	// have entered the handler, so one worker cannot drain the queue
	// before the others connect. The timeout bounds a worker that never
	// arrives; the per-worker assertion below then reports it.
	var entered atomic.Int32
	allIn := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	total := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			first := true
			h := func(j Job) ([]byte, error) {
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
				return echoHandler(j)
			}
			n, err := RunWorker(context.Background(), addr, fmt.Sprintf("w%d", id), h)
			if err != nil {
				t.Errorf("worker %d: %v", id, err)
			}
			mu.Lock()
			total += n
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if total != jobs {
		t.Errorf("workers completed %d jobs total, want %d (each job exactly once)", total, jobs)
	}
	s := p.Stats()
	if s.JobsDone != jobs {
		t.Errorf("pool recorded %d done, want %d", s.JobsDone, jobs)
	}
	// With 60 jobs and 4 pullers, everyone should get some work.
	for w := 0; w < workers; w++ {
		if s.WorkerResults[fmt.Sprintf("w%d", w)] == 0 {
			t.Errorf("worker w%d got no jobs", w)
		}
	}
}

func TestHandlerErrorsAreRecorded(t *testing.T) {
	p := NewPool(makeJobs(10))
	addr, stop := startPool(t, p)
	defer stop()
	bad := func(j Job) ([]byte, error) {
		if j.ID%2 == 0 {
			return nil, errors.New("boom")
		}
		return echoHandler(j)
	}
	if _, err := RunWorker(context.Background(), addr, "w1", bad); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.JobsDone != 5 || s.JobsFailed != 5 {
		t.Errorf("stats = %+v, want 5 done / 5 failed", s)
	}
}

func TestMiningPoolEndToEnd(t *testing.T) {
	// The real thing: distribute nonce ranges for an easy-target block
	// across workers running the actual SHA-256 miner.
	header := bitcoin.Header{Version: 1, Time: 1231006505, Bits: 0x207fffff}
	const rangeSize = 64
	jobs := make([]Job, 8)
	for i := range jobs {
		start := make([]byte, 4)
		binary.LittleEndian.PutUint32(start, uint32(i*rangeSize))
		jobs[i] = Job{ID: uint64(i + 1), Payload: start}
	}
	p := NewPool(jobs)
	addr, stop := startPool(t, p)
	defer stop()

	mine := func(j Job) ([]byte, error) {
		start := binary.LittleEndian.Uint32(j.Payload)
		h := header
		nonce, found, err := bitcoin.Mine(&h, start, rangeSize)
		if err != nil {
			return nil, err
		}
		if !found {
			return nil, errors.New("range exhausted")
		}
		out := make([]byte, 4)
		binary.LittleEndian.PutUint32(out, nonce)
		return out, nil
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			_, _ = RunWorker(context.Background(), addr, fmt.Sprintf("miner%d", id), mine)
		}(w)
	}
	wg.Wait()
	s := p.Stats()
	if s.JobsDone == 0 {
		t.Fatal("no shares found at trivial difficulty")
	}
	// Verify one returned share.
	for i := 0; i < s.JobsDone; i++ {
		select {
		case r := <-p.Results():
			if r.Err != "" {
				continue
			}
			h := header
			h.Nonce = binary.LittleEndian.Uint32(r.Output)
			ok, err := bitcoin.CheckProofOfWork(&h)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Errorf("share nonce %d does not verify", h.Nonce)
			}
		default:
		}
	}
}

func TestAddAfterStart(t *testing.T) {
	p := NewPool(nil)
	if err := p.Add(Job{ID: 1, Payload: make([]byte, 8)}); err != nil {
		t.Fatal(err)
	}
	addr, stop := startPool(t, p)
	defer stop()
	n, err := RunWorker(context.Background(), addr, "w", echoHandler)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("completed %d, want 1", n)
	}
}

func TestWorkerContextCancel(t *testing.T) {
	p := NewPool(makeJobs(1000))
	addr, stop := startPool(t, p)
	defer stop()
	ctx, cancel := context.WithCancel(context.Background())
	slow := func(j Job) ([]byte, error) {
		time.Sleep(5 * time.Millisecond)
		return echoHandler(j)
	}
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	_, err := RunWorker(ctx, addr, "w", slow)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want nil or context.Canceled", err)
	}
	if p.Remaining() == 0 {
		t.Error("cancellation should leave work behind")
	}
}

func TestWorkerErrors(t *testing.T) {
	if _, err := RunWorker(context.Background(), "127.0.0.1:1", "w", nil); err == nil {
		t.Error("nil handler should fail")
	}
	if _, err := RunWorker(context.Background(), "127.0.0.1:1", "w", echoHandler); err == nil {
		t.Error("unreachable pool should fail")
	}
}

func TestPoolIgnoresDuplicateResults(t *testing.T) {
	p := NewPool(nil)
	p.record(Result{JobID: 7, Worker: "a"})
	p.record(Result{JobID: 7, Worker: "b"})
	s := p.Stats()
	if s.JobsDone != 1 {
		t.Errorf("duplicate results counted: %+v", s)
	}
}

func TestLeaseRequeuesAbandonedJobs(t *testing.T) {
	p := NewPool(makeJobs(3))
	p.SetLeaseDuration(time.Minute)
	// Deterministic clock.
	now := time.Unix(1000, 0)
	p.now = func() time.Time { return now }

	// A worker takes a job and vanishes.
	j1, ok := p.next()
	if !ok {
		t.Fatal("no job")
	}
	if p.Remaining() != 2 {
		t.Fatalf("remaining = %d, want 2", p.Remaining())
	}
	// Before expiry the job stays leased.
	p.mu.Lock()
	p.reapExpiredLocked()
	p.mu.Unlock()
	if p.Remaining() != 2 {
		t.Error("lease reaped early")
	}
	// After expiry the job returns to the queue.
	now = now.Add(2 * time.Minute)
	j2, ok := p.next() // also reaps
	if !ok {
		t.Fatal("no job")
	}
	_ = j2
	if got := p.Stats().JobsRequeued; got != 1 {
		t.Errorf("requeued = %d, want 1", got)
	}
	// The abandoned job is eventually re-issued.
	seen := map[uint64]bool{j1.ID: false, j2.ID: true}
	for {
		j, ok := p.next()
		if !ok {
			break
		}
		seen[j.ID] = true
	}
	if !seen[j1.ID] {
		t.Error("abandoned job never re-issued")
	}
}

func TestLeaseFirstResultWins(t *testing.T) {
	p := NewPool(makeJobs(1))
	p.SetLeaseDuration(time.Nanosecond)
	now := time.Unix(0, 0)
	p.now = func() time.Time { return now }

	j, ok := p.next()
	if !ok {
		t.Fatal("no job")
	}
	// Lease expires; the job is re-issued to a second worker.
	now = now.Add(time.Second)
	j2, ok := p.next()
	if !ok || j2.ID != j.ID {
		t.Fatalf("expected the same job re-issued, got %+v ok=%v", j2, ok)
	}
	// Both workers answer; only the first counts.
	p.record(Result{JobID: j.ID, Worker: "slow"})
	p.record(Result{JobID: j.ID, Worker: "late"})
	s := p.Stats()
	if s.JobsDone != 1 {
		t.Errorf("done = %d, want 1", s.JobsDone)
	}
	if s.WorkerResults["late"] != 0 {
		t.Error("late duplicate result should not be credited")
	}
	// A done job must never be issued again even if a stale requeue
	// lands in pending.
	p.mu.Lock()
	p.pending = append(p.pending, j)
	p.mu.Unlock()
	if _, ok := p.next(); ok {
		t.Error("completed job re-issued")
	}
}

func TestLeaseEndToEndRecovery(t *testing.T) {
	// A flaky worker connects, takes a job, and drops the connection
	// without answering; after the lease expires a healthy worker
	// finishes everything.
	p := NewPool(makeJobs(5))
	p.SetLeaseDuration(50 * time.Millisecond)
	addr, stop := startPool(t, p)
	defer stop()

	// Flaky client speaking the raw protocol.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(conn)
	dec := json.NewDecoder(conn)
	if err := enc.Encode(message{Type: "hello", Worker: "flaky"}); err != nil {
		t.Fatal(err)
	}
	var m message
	if err := dec.Decode(&m); err != nil || m.Type != "ack" {
		t.Fatal("handshake failed")
	}
	if err := enc.Encode(message{Type: "getwork"}); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&m); err != nil || m.Type != "job" {
		t.Fatal("no job issued")
	}
	conn.Close() // vanish with the job

	time.Sleep(80 * time.Millisecond) // let the lease lapse

	n, err := RunWorker(context.Background(), addr, "healthy", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("healthy worker completed %d jobs, want all 5", n)
	}
	s := p.Stats()
	if s.JobsDone != 5 {
		t.Errorf("done = %d, want 5", s.JobsDone)
	}
	if s.JobsRequeued != 1 {
		t.Errorf("requeued = %d, want 1", s.JobsRequeued)
	}
}

func TestRunFleet(t *testing.T) {
	p := NewPool(makeJobs(40))
	addr, stop := startPool(t, p)
	defer stop()
	total, err := RunFleet(context.Background(), addr, "fleet", 4, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	if total != 40 {
		t.Errorf("fleet completed %d, want 40", total)
	}
	s := p.Stats()
	if len(s.WorkerResults) == 0 {
		t.Error("no per-worker accounting")
	}
	for name := range s.WorkerResults {
		if len(name) < 6 || name[:6] != "fleet-" {
			t.Errorf("unexpected worker name %q", name)
		}
	}
	if _, err := RunFleet(context.Background(), addr, "x", 0, echoHandler); err == nil {
		t.Error("zero workers should fail")
	}
	// A fleet pointed at a dead address reports the dial error.
	if _, err := RunFleet(context.Background(), "127.0.0.1:1", "x", 2, echoHandler); err == nil {
		t.Error("unreachable pool should surface an error")
	}
}
