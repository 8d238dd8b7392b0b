package cloud

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"asiccloud/internal/obs"
)

// Job is one independent unit of work.
type Job struct {
	ID      uint64 `json:"id"`
	Payload []byte `json:"payload"`
	// Traceparent optionally carries the coordinator's W3C traceparent
	// header value so worker-side instrumentation can join the
	// submitting trace across the TCP hop (obs.ParseTraceparent +
	// obs.WithSpanContext on the worker).
	Traceparent string `json:"traceparent,omitempty"`
}

// Result is a completed (or failed) job.
type Result struct {
	JobID  uint64 `json:"job_id"`
	Worker string `json:"worker"`
	Output []byte `json:"output,omitempty"`
	Err    string `json:"err,omitempty"`
}

// message is the wire envelope.
type message struct {
	Type   string  `json:"type"` // hello, getwork, job, nojob, result, ack
	Worker string  `json:"worker,omitempty"`
	Job    *Job    `json:"job,omitempty"`
	Result *Result `json:"result,omitempty"`
}

// Stats summarizes pool progress.
type Stats struct {
	JobsQueued int
	JobsDone   int
	JobsFailed int
	// JobsRequeued counts every return of an issued job to the pending
	// queue, whether from a lapsed lease or a connection that died
	// holding the job.
	JobsRequeued int
	// JobsExpired counts the lease-deadline subset of requeues.
	JobsExpired   int
	WorkerResults map[string]int
}

// poolMetrics holds the pool's obs handles. All fields are nil until
// Instrument is called; the obs types are nil-safe, so the hot paths
// update them unconditionally.
type poolMetrics struct {
	latency  *obs.Histogram // seconds from job issue to result
	requeued *obs.Counter
	expired  *obs.Counter
	done     *obs.Counter
	failed   *obs.Counter
	inflight *obs.Gauge // jobs issued and not yet resolved or requeued
	queued   *obs.Gauge // jobs waiting in the pending queue
	// rec mints per-worker latency histograms on demand: worker names
	// are not known at Instrument time, and each result is one registry
	// lookup (off the hot path — one per completed job).
	rec *obs.Recorder
}

// lease tracks a job handed to a worker that has not reported back.
type lease struct {
	job      Job
	deadline time.Time
}

// Pool is the job server.
type Pool struct {
	mu      sync.Mutex
	pending []Job
	leases  map[uint64]lease
	jobIDs  map[uint64]bool // every job ID NewPool enqueued
	done    map[uint64]bool
	issued  map[uint64]time.Time // last hand-out time of outstanding jobs
	stats   Stats
	met     poolMetrics
	// results has one slot per queued job, and record sends at most one
	// result per queued job ID, so a send never blocks and delivery is
	// lossless however slowly the consumer reads. Whichever of record
	// and Close makes the pool drained closes it, exactly once.
	results chan Result
	closed  bool
	// leaseDuration bounds how long a worker may hold a job before it
	// is assumed dead and the job is requeued (0 = no leasing).
	leaseDuration time.Duration
	// log receives lifecycle events (worker connects, lease expiries,
	// requeues, failed jobs); never nil (no-op by default).
	log *slog.Logger
	// now is injectable for deterministic tests.
	now func() time.Time
}

// NewPool creates a pool preloaded with jobs. Job IDs must be distinct:
// the pool tracks leases and results by ID and drains once every queued
// job has a result, so a repeated ID could never drain. NewPool panics
// on a repeated ID, a caller bug.
func NewPool(jobs []Job) *Pool {
	p := &Pool{
		pending: append([]Job(nil), jobs...),
		leases:  make(map[uint64]lease),
		jobIDs:  make(map[uint64]bool, len(jobs)),
		done:    make(map[uint64]bool),
		issued:  make(map[uint64]time.Time),
		results: make(chan Result, len(jobs)),
		log:     obs.NopLogger(),
		now:     time.Now,
	}
	for _, j := range jobs {
		if p.jobIDs[j.ID] {
			panic(fmt.Sprintf("cloud: NewPool: duplicate job ID %d", j.ID))
		}
		p.jobIDs[j.ID] = true
	}
	p.stats.JobsQueued = len(jobs)
	p.stats.WorkerResults = make(map[string]int)
	return p
}

// drainedLocked reports whether the pool is closed and every queued job
// has a recorded result. Callers hold p.mu.
func (p *Pool) drainedLocked() bool {
	return p.closed && p.stats.JobsDone+p.stats.JobsFailed >= p.stats.JobsQueued
}

// drained reports whether the pool is closed with every queued job
// resolved — the state in which a closed listener means graceful
// shutdown, not failure.
func (p *Pool) drained() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.drainedLocked()
}

// idleLocked reports whether the pool has nothing to hand out and
// nothing outstanding that could be requeued: pending is empty and no
// issued job is in flight. Distinct from drained, which also needs
// Close. Callers hold p.mu.
func (p *Pool) idleLocked() bool {
	return len(p.pending) == 0 && len(p.issued) == 0
}

// Close marks the pool complete: once every queued job has a recorded
// result the Results channel is closed. A coordinator calls Close after
// building the pool and then ranges over Results until the channel
// closes. Close is idempotent and
// does not interrupt jobs already pending or leased — they still run to
// completion and their results are still delivered.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	if p.drainedLocked() {
		close(p.results)
	}
}

// Instrument attaches an obs recorder: job latency histograms
// (asiccloud_pool_job_seconds, issue → result), lease-expiry and
// requeue counters, done/failed counters, and in-flight/queued gauges.
// Call before Serve; a nil recorder leaves the pool un-instrumented.
func (p *Pool) Instrument(rec *obs.Recorder) {
	rec.Registry().SetHelp("asiccloud_pool_worker_job_seconds",
		"per-worker seconds from job issue to result")
	p.mu.Lock()
	defer p.mu.Unlock()
	p.met = poolMetrics{
		latency:  rec.Histogram("asiccloud_pool_job_seconds", nil),
		requeued: rec.Counter("asiccloud_pool_requeued_total"),
		expired:  rec.Counter("asiccloud_pool_lease_expired_total"),
		done:     rec.Counter("asiccloud_pool_jobs_done_total"),
		failed:   rec.Counter("asiccloud_pool_jobs_failed_total"),
		inflight: rec.Gauge("asiccloud_pool_inflight_jobs"),
		queued:   rec.Gauge("asiccloud_pool_queued_jobs"),
		rec:      rec,
	}
	p.met.queued.Set(float64(len(p.pending)))
}

// SetLogger attaches a structured logger for pool lifecycle events:
// worker connect/disconnect, lease expiries, requeues, watchdog
// closes, and failed jobs. Call before Serve; nil restores the no-op
// logger.
func (p *Pool) SetLogger(l *slog.Logger) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.log = obs.OrNop(l)
}

// SetLeaseDuration enables work recovery: a job not answered within d
// is handed to the next worker that asks. Results arriving after the
// job was re-answered are ignored (first result wins).
func (p *Pool) SetLeaseDuration(d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.leaseDuration = d
}

// reapExpiredLocked requeues jobs whose lease has lapsed and returns
// their IDs so the caller can log them after releasing p.mu (logging
// never happens under the pool lock). Callers hold p.mu.
func (p *Pool) reapExpiredLocked() []uint64 {
	if p.leaseDuration <= 0 {
		return nil
	}
	var expired []uint64
	now := p.now()
	for id, l := range p.leases {
		if now.After(l.deadline) {
			delete(p.leases, id)
			delete(p.issued, id)
			p.pending = append(p.pending, l.job)
			p.stats.JobsRequeued++
			p.stats.JobsExpired++
			p.met.expired.Inc()
			p.met.requeued.Inc()
			p.met.inflight.Add(-1)
			p.met.queued.Set(float64(len(p.pending)))
			expired = append(expired, id)
		}
	}
	return expired
}

// requeue returns a job whose connection died before it could be
// answered to the pending queue.
func (p *Pool) requeue(j Job) {
	p.mu.Lock()
	p.requeueLocked(j)
	log := p.log
	p.mu.Unlock()
	log.LogAttrs(context.Background(), slog.LevelWarn, "connection died holding job; requeued",
		slog.Uint64("job_id", j.ID))
}

// requeueLocked returns an issued job to the pending queue. Callers
// hold p.mu.
func (p *Pool) requeueLocked(j Job) {
	delete(p.leases, j.ID)
	delete(p.issued, j.ID)
	p.pending = append(p.pending, j)
	p.stats.JobsRequeued++
	p.met.requeued.Inc()
	p.met.inflight.Add(-1)
	p.met.queued.Set(float64(len(p.pending)))
}

// releaseDeadConn requeues the job a dying connection still holds —
// but only on pools without leasing, where no other recovery mechanism
// exists and the job would otherwise be stranded while other workers
// wait on it forever. With leasing enabled the lease timer owns
// recovery: the worker behind the dead socket may still be computing,
// and its result (arriving on a new connection) should win the
// first-result race rather than racing a premature requeue.
func (p *Pool) releaseDeadConn(j Job) {
	p.mu.Lock()
	if p.leaseDuration > 0 || p.done[j.ID] {
		p.mu.Unlock()
		return
	}
	if _, outstanding := p.issued[j.ID]; !outstanding {
		p.mu.Unlock()
		return // already requeued or re-answered elsewhere
	}
	p.requeueLocked(j)
	log := p.log
	p.mu.Unlock()
	log.LogAttrs(context.Background(), slog.LevelWarn, "connection died holding job; requeued",
		slog.Uint64("job_id", j.ID))
}

// next pops a job, or ok=false when none remain. Expired leases are
// recycled first.
func (p *Pool) next() (Job, bool) {
	p.mu.Lock()
	expired := p.reapExpiredLocked()
	var (
		out Job
		ok  bool
	)
	for len(p.pending) > 0 {
		j := p.pending[0]
		p.pending = p.pending[1:]
		if p.done[j.ID] {
			continue // a late duplicate beat this requeue
		}
		if p.leaseDuration > 0 {
			p.leases[j.ID] = lease{job: j, deadline: p.now().Add(p.leaseDuration)}
		}
		if _, outstanding := p.issued[j.ID]; !outstanding {
			p.met.inflight.Add(1)
		}
		p.issued[j.ID] = p.now()
		p.met.queued.Set(float64(len(p.pending)))
		out, ok = j, true
		break
	}
	if !ok {
		p.met.queued.Set(0)
	}
	log := p.log
	p.mu.Unlock()
	logExpired(log, expired)
	return out, ok
}

// record stores a result, ignoring duplicates for the same job. A
// result naming a job ID the pool never queued is dropped with a
// warning: results are untrusted input, and counting one would let a
// worker drain the pool with answers to jobs that never ran. A late
// result for a requeued job is still accepted (first result wins). The
// arriving result always beats its own just-lapsing lease (it is
// recorded before expired leases are reaped), and reaping here means
// leases lapse even when no worker is asking for work.
func (p *Pool) record(r Result) {
	p.mu.Lock()
	if !p.jobIDs[r.JobID] {
		log := p.log
		p.mu.Unlock()
		log.LogAttrs(context.Background(), slog.LevelWarn, "result for a job never queued; ignored",
			slog.Uint64("job_id", r.JobID),
			slog.String("worker", r.Worker))
		return
	}
	if p.done[r.JobID] {
		p.mu.Unlock()
		return
	}
	p.done[r.JobID] = true
	delete(p.leases, r.JobID)
	if issuedAt, ok := p.issued[r.JobID]; ok {
		lat := p.now().Sub(issuedAt).Seconds()
		p.met.latency.Observe(lat)
		p.met.rec.Histogram("asiccloud_pool_worker_job_seconds", nil,
			"worker", r.Worker).Observe(lat)
		p.met.inflight.Add(-1)
		delete(p.issued, r.JobID)
	}
	if r.Err == "" {
		p.stats.JobsDone++
		p.met.done.Inc()
	} else {
		p.stats.JobsFailed++
		p.met.failed.Inc()
	}
	p.stats.WorkerResults[r.Worker]++
	select {
	case p.results <- r:
	default:
		// results has a slot for every queued job and this is the first
		// result for its ID, so only a bug can fill it.
		panic("cloud: results channel full")
	}
	if p.drainedLocked() {
		close(p.results)
	}
	expired := p.reapExpiredLocked()
	log := p.log
	p.mu.Unlock()
	logExpired(log, expired)
	if r.Err != "" {
		log.LogAttrs(context.Background(), slog.LevelWarn, "job failed",
			slog.Uint64("job_id", r.JobID),
			slog.String("worker", r.Worker),
			slog.String("error", r.Err))
	} else {
		log.LogAttrs(context.Background(), slog.LevelDebug, "job completed",
			slog.Uint64("job_id", r.JobID),
			slog.String("worker", r.Worker))
	}
}

// Stats returns a snapshot. Expired leases are reaped first, so the
// snapshot reflects lease state even when every worker is busy or gone
// (before, leases only lapsed when a worker asked for more work).
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	expired := p.reapExpiredLocked()
	s := p.stats
	s.WorkerResults = make(map[string]int, len(p.stats.WorkerResults))
	for k, v := range p.stats.WorkerResults {
		s.WorkerResults[k] = v
	}
	log := p.log
	p.mu.Unlock()
	logExpired(log, expired)
	return s
}

// logExpired reports reaped leases after p.mu is released (logging
// never happens under the pool lock).
func logExpired(log *slog.Logger, expired []uint64) {
	for _, id := range expired {
		log.LogAttrs(context.Background(), slog.LevelWarn, "lease expired; job requeued",
			slog.Uint64("job_id", id))
	}
}

// Results streams every recorded result in record order. Delivery is
// lossless — the channel holds a result for every queued job, so a
// slow consumer loses none and never blocks the pool — and the channel
// is closed once Close has been called and all queued jobs are
// resolved, so `for range pool.Results()` is the coordinator's drain
// loop.
func (p *Pool) Results() <-chan Result { return p.results }

// Serve accepts worker connections until the context is canceled or the
// listener fails. Each connection is served on its own goroutine, and
// Serve returns only after every connection goroutine has finished.
//
// Closing the listener once the pool has drained is the graceful
// shutdown: Serve stops accepting, treats the closed listener as a
// clean exit rather than a failure, and its return waits for connected
// workers to collect their final drained nojob and disconnect on their
// own — no worker sees a mid-protocol hangup. Canceling the context is
// the hard stop: it closes the listener and every worker socket.
func (p *Pool) Serve(ctx context.Context, l net.Listener) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	go func() {
		<-ctx.Done()
		//lint:ignore droppederr best-effort shutdown; Accept surfaces the closed listener
		l.Close()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			if ctx.Err() != nil || p.drained() {
				return nil
			}
			return fmt.Errorf("cloud: accept: %w", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			//lint:ignore droppederr close error on a finished worker socket is unactionable
			defer conn.Close()
			p.serveConn(ctx, conn)
		}()
	}
}

// getworkPollInterval is how often a serveConn holding an unanswerable
// getwork re-checks the queue. Each poll also reaps expired leases (via
// next), so a waiting worker is what recycles a stalled peer's job.
const getworkPollInterval = 15 * time.Millisecond

// serveConn speaks the pull protocol with one worker. Cancellation
// closes the connection, which unblocks the Decode the loop would
// otherwise sit in until the worker disconnected on its own — before
// this, Serve's wg.Wait could hang shutdown behind an idle worker
// socket.
func (p *Pool) serveConn(ctx context.Context, conn net.Conn) {
	p.mu.Lock()
	log := p.log
	p.mu.Unlock()
	remote := conn.RemoteAddr().String()
	stop := context.AfterFunc(ctx, func() {
		log.LogAttrs(ctx, slog.LevelDebug, "watchdog closing worker connection on cancellation",
			slog.String("remote", remote))
		//lint:ignore droppederr best-effort cancellation; the reader sees the closed socket
		conn.Close()
	})
	defer stop()
	dec := json.NewDecoder(bufio.NewReader(conn))
	enc := json.NewEncoder(conn)
	worker := "anonymous"
	// held is the job this connection was handed and has not answered;
	// if the connection dies holding it, a lease-less pool requeues it
	// immediately (a leased pool lets the lease timer decide). A worker
	// holds one job at a time, so a getwork while holding one drops the
	// connection: handing out a second job would forget the first, and
	// on a lease-less pool nothing would ever requeue it.
	var held *Job
	defer func() {
		if held != nil {
			p.releaseDeadConn(*held)
		}
		log.LogAttrs(ctx, slog.LevelDebug, "worker disconnected",
			slog.String("worker", worker),
			slog.String("remote", remote))
	}()
	for {
		if ctx.Err() != nil {
			return
		}
		var m message
		if err := dec.Decode(&m); err != nil {
			return // disconnect, cancellation, or garbage: drop the connection
		}
		switch m.Type {
		case "hello":
			if m.Worker != "" {
				worker = m.Worker
			}
			log.LogAttrs(ctx, slog.LevelInfo, "worker connected",
				slog.String("worker", worker),
				slog.String("remote", remote))
			if err := enc.Encode(message{Type: "ack"}); err != nil {
				return
			}
		case "getwork":
			if held != nil {
				return // the deferred release requeues the held job
			}
			j, ok := p.waitNext(ctx)
			if !ok {
				// Truly out of work — drained, idle, or shutting down —
				// not just momentarily empty; nojob is the worker's
				// clean exit.
				//lint:ignore droppederr courtesy reply on a connection we are about to drop
				_ = enc.Encode(message{Type: "nojob"})
				return
			}
			if err := enc.Encode(message{Type: "job", Job: &j}); err != nil {
				// Connection died holding a job: requeue it.
				p.requeue(j)
				return
			}
			held = &j
		case "result":
			if m.Result == nil {
				return
			}
			r := *m.Result
			if r.Worker == "" {
				r.Worker = worker
			}
			if held != nil && r.JobID == held.ID {
				held = nil
			}
			p.record(r)
			if err := enc.Encode(message{Type: "ack"}); err != nil {
				return
			}
		default:
			return // unknown message: drop the connection
		}
	}
}

// waitNext pops the next job, blocking while the pending queue is
// momentarily empty but jobs are still outstanding: an expired lease or
// a dead connection can requeue work at any moment, and dropping the
// worker here would leave that work with nobody to run it. It returns
// ok=false only when the pool is genuinely out of work — drained and
// closed, or idle with nothing in flight — or the context is canceled.
func (p *Pool) waitNext(ctx context.Context) (Job, bool) {
	for {
		if j, ok := p.next(); ok {
			return j, true
		}
		p.mu.Lock()
		idle := p.idleLocked() || p.drainedLocked()
		p.mu.Unlock()
		if idle || ctx.Err() != nil {
			return Job{}, false
		}
		select {
		case <-ctx.Done():
			return Job{}, false
		case <-time.After(getworkPollInterval):
		}
	}
}

// Handler computes a job's output — for a Bitcoin cloud, scanning a
// nonce range; for a transcode cloud, encoding a chunk.
type Handler func(Job) ([]byte, error)

// RunWorker connects to a pool and processes jobs until the pool runs
// dry, the context is canceled, or the connection breaks. It returns the
// number of jobs completed.
func RunWorker(ctx context.Context, addr, id string, h Handler) (int, error) {
	if h == nil {
		return 0, errors.New("cloud: nil handler")
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return 0, fmt.Errorf("cloud: dial %s: %w", addr, err)
	}
	//lint:ignore droppederr close error after the protocol exchange is unactionable
	defer conn.Close()
	go func() {
		<-ctx.Done()
		//lint:ignore droppederr best-effort cancellation; the reader sees the closed socket
		conn.Close()
	}()

	dec := json.NewDecoder(bufio.NewReader(conn))
	enc := json.NewEncoder(conn)
	if err := enc.Encode(message{Type: "hello", Worker: id}); err != nil {
		return 0, err
	}
	var m message
	if err := dec.Decode(&m); err != nil || m.Type != "ack" {
		return 0, fmt.Errorf("cloud: bad handshake")
	}

	completed := 0
	for {
		if err := enc.Encode(message{Type: "getwork"}); err != nil {
			return completed, ctxErrOr(ctx, err)
		}
		if err := dec.Decode(&m); err != nil {
			return completed, ctxErrOr(ctx, err)
		}
		switch m.Type {
		case "nojob":
			// The explicit drained nojob is the only clean exit.
			return completed, nil
		case "job":
			if m.Job == nil {
				return completed, errors.New("cloud: job message without job")
			}
			out, herr := h(*m.Job)
			r := Result{JobID: m.Job.ID, Worker: id, Output: out}
			if herr != nil {
				r.Err = herr.Error()
			}
			if err := enc.Encode(message{Type: "result", Result: &r}); err != nil {
				return completed, ctxErrOr(ctx, err)
			}
			if err := dec.Decode(&m); err != nil {
				return completed, ctxErrOr(ctx, err)
			}
			if m.Type != "ack" {
				return completed, fmt.Errorf("cloud: expected result ack, got %q", m.Type)
			}
			completed++
		default:
			return completed, fmt.Errorf("cloud: unexpected message %q", m.Type)
		}
	}
}

// ErrUnexpectedDisconnect reports that the connection to the pool died
// mid-protocol — a coordinator crash, a network partition, a watchdog
// close — as opposed to the pool's explicit drained "nojob", which is
// the only clean worker exit. Before this distinction an io.EOF was
// mapped to nil, so a coordinator crash mid-sweep looked exactly like a
// completed drain to RunWorker and RunFleet callers.
var ErrUnexpectedDisconnect = errors.New("cloud: connection to pool lost before drain")

// ctxErrOr maps a transport error seen by the worker: context
// cancellation wins (the watchdog's own close is not a pool failure),
// and any connection-level failure — EOF included — is wrapped in
// ErrUnexpectedDisconnect so callers can tell a dead coordinator from a
// drained pool.
func ctxErrOr(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	var opErr *net.OpError
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || errors.As(err, &opErr) {
		return fmt.Errorf("%w: %v", ErrUnexpectedDisconnect, err)
	}
	return err
}

// RunFleet launches n workers against the pool address and waits for all
// of them to drain it, returning the total jobs completed. Worker IDs
// are prefix-0 ... prefix-(n-1). The first worker error (other than a
// clean pool drain) is returned, but all workers always finish.
func RunFleet(ctx context.Context, addr, prefix string, n int, h Handler) (int, error) {
	if n <= 0 {
		return 0, errors.New("cloud: fleet needs at least one worker")
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		total    int
		firstErr error
	)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			done, err := RunWorker(ctx, addr, fmt.Sprintf("%s-%d", prefix, id), h)
			mu.Lock()
			defer mu.Unlock()
			total += done
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}(w)
	}
	wg.Wait()
	return total, firstErr
}
