package cloud

import (
	"context"
	"encoding/json"
	"net"
	"sync"
	"testing"
	"time"

	"asiccloud/internal/obs"
)

// TestPoolMetricsEndToEnd drains an instrumented pool and checks the
// counters, gauges and latency histogram against Stats().
func TestPoolMetricsEndToEnd(t *testing.T) {
	p := NewPool(makeJobs(25))
	rec := obs.NewRecorder()
	p.Instrument(rec)
	addr, stop := startPool(t, p)
	defer stop()

	if _, err := RunWorker(context.Background(), addr, "w1", echoHandler); err != nil {
		t.Fatal(err)
	}
	reg := rec.Registry()
	if got := reg.Counter("asiccloud_pool_jobs_done_total").Value(); got != 25 {
		t.Errorf("done counter = %d, want 25", got)
	}
	if got := reg.Histogram("asiccloud_pool_job_seconds", nil).Count(); got != 25 {
		t.Errorf("latency observations = %d, want 25", got)
	}
	if got := reg.Gauge("asiccloud_pool_inflight_jobs").Value(); got != 0 {
		t.Errorf("inflight after drain = %v, want 0", got)
	}
	if got := reg.Gauge("asiccloud_pool_queued_jobs").Value(); got != 0 {
		t.Errorf("queued after drain = %v, want 0", got)
	}
}

// TestLeaseExpiryUnderConcurrentFleet is the satellite coverage task:
// a worker vanishes holding a leased job, the lease lapses, and a
// concurrent fleet drains everything while another goroutine hammers
// Stats() — run with -race. The new requeue/expiry counters must agree
// with the stats snapshot.
func TestLeaseExpiryUnderConcurrentFleet(t *testing.T) {
	const jobs = 30
	p := NewPool(makeJobs(jobs))
	p.SetLeaseDuration(200 * time.Millisecond)
	rec := obs.NewRecorder()
	p.Instrument(rec)
	addr, stop := startPool(t, p)
	defer stop()

	// A flaky raw-protocol client takes one job and vanishes.
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
	conn.Close()

	time.Sleep(250 * time.Millisecond) // let the lease lapse

	// Hammer the stats surface while the fleet runs.
	statsCtx, stopStats := context.WithCancel(context.Background())
	var statsWG sync.WaitGroup
	statsWG.Add(1)
	go func() {
		defer statsWG.Done()
		for statsCtx.Err() == nil {
			s := p.Stats()
			if s.JobsDone < 0 || s.JobsRequeued < s.JobsExpired {
				t.Error("inconsistent stats snapshot")
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	slow := func(j Job) ([]byte, error) {
		time.Sleep(time.Millisecond)
		return echoHandler(j)
	}
	total, err := RunFleet(context.Background(), addr, "fleet", 4, slow)
	stopStats()
	statsWG.Wait()
	if err != nil {
		t.Fatal(err)
	}
	// >= rather than ==: if a lease lapses mid-computation the job runs
	// twice (first result wins), which is correct at-least-once behavior.
	if total < jobs {
		t.Errorf("fleet completed %d, want >= %d", total, jobs)
	}

	s := p.Stats()
	if s.JobsDone != jobs {
		t.Errorf("done = %d, want %d", s.JobsDone, jobs)
	}
	if s.JobsExpired < 1 {
		t.Errorf("expired = %d, want >= 1 (the flaky worker's lease)", s.JobsExpired)
	}
	if s.JobsRequeued < s.JobsExpired {
		t.Errorf("requeued %d must include the %d expiries", s.JobsRequeued, s.JobsExpired)
	}

	reg := rec.Registry()
	if got := reg.Counter("asiccloud_pool_lease_expired_total").Value(); got != int64(s.JobsExpired) {
		t.Errorf("expiry counter = %d, stats say %d", got, s.JobsExpired)
	}
	if got := reg.Counter("asiccloud_pool_requeued_total").Value(); got != int64(s.JobsRequeued) {
		t.Errorf("requeue counter = %d, stats say %d", got, s.JobsRequeued)
	}
	if got := reg.Counter("asiccloud_pool_jobs_done_total").Value(); got != int64(s.JobsDone) {
		t.Errorf("done counter = %d, stats say %d", got, s.JobsDone)
	}
	if got := reg.Gauge("asiccloud_pool_inflight_jobs").Value(); got != 0 {
		t.Errorf("inflight after drain = %v, want 0", got)
	}
	// A lease that lapses mid-computation drops its issue timestamp, so
	// that completion records no latency sample: the count is bounded by
	// the job count but may fall below it under scheduler starvation.
	if got := reg.Histogram("asiccloud_pool_job_seconds", nil).Count(); got < 1 || got > int64(jobs) {
		t.Errorf("latency observations = %d, want within [1, %d]", got, jobs)
	}
}

// TestUninstrumentedPoolUnchanged pins that a pool without Instrument
// still works: all metric handles are nil and every update is a no-op.
func TestUninstrumentedPoolUnchanged(t *testing.T) {
	p := NewPool(makeJobs(5))
	p.SetLeaseDuration(time.Nanosecond)
	now := time.Unix(0, 0)
	p.now = func() time.Time { return now }
	j, ok := p.next()
	if !ok {
		t.Fatal("no job")
	}
	now = now.Add(time.Second)
	if _, ok := p.next(); !ok { // triggers a reap of j's lease
		t.Fatal("no job")
	}
	p.record(Result{JobID: j.ID, Worker: "w"})
	s := p.Stats()
	if s.JobsExpired != 1 || s.JobsRequeued != 1 {
		t.Errorf("stats = %+v, want 1 expired / 1 requeued", s)
	}
}
