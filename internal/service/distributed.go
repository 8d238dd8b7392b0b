package service

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"asiccloud/internal/cloud"
	"asiccloud/internal/core"
	"asiccloud/internal/obs"
	"asiccloud/internal/tco"
)

// Distributed sweep execution: a coordinator partitions one sweep into
// the deterministic chunks core.PlanSweep enumerates, serializes each
// as a cloud.Job, and fans them out over the cloud.Pool protocol
// (leases, requeue on expiry, first-result-wins dedup). Workers — any
// process running NewChunkHandler under cloud.RunWorker, typically
// `asiccloudd -worker -join <addr>` — evaluate chunks on a local
// core.Engine and return core.ChunkResults in their records-plus-rows
// wire form (core.ChunkResult.MarshalJSON). The coordinator merges them
// with core.ResultMerger and renders the result through the same
// marshalResult the daemon and RunOnce use, so a distributed sweep's
// bytes are identical to a single-process run: frontier merge is
// associative and order-independent, the optima are read off the
// merged frontiers, prune accounting counts grid-build prunes once and
// per-geometry prunes per chunk, and float64s round-trip the chunk wire
// form exactly.
//
// Chunk identity is stable across processes: the payload carries the
// full wire Request plus its canonical hash, and the worker
// re-canonicalizes and verifies the hash before evaluating, so a
// version-skewed worker (one that would resolve the request to a
// different design space) refuses the chunk instead of corrupting the
// merge.

// chunkPayload is the cloud.Job payload for one sweep chunk.
type chunkPayload struct {
	// Request is the full wire-form request; the worker resolves it
	// with its own Canonicalize, exactly as a daemon would.
	Request Request `json:"request"`
	// RequestHash is the coordinator's canonical hash; a worker whose
	// canonicalization disagrees must refuse the chunk.
	RequestHash string `json:"request_hash"`
	// ChunkSize and Chunk select one chunk of the deterministic
	// partition; a worker whose own partition does not have NumChunks
	// chunks refuses the chunk.
	ChunkSize int `json:"chunk_size"`
	Chunk     int `json:"chunk"`
	NumChunks int `json:"num_chunks"`
}

// planMemo is a worker's last sweep plan, keyed by the request hash the
// handler has just verified and the chunk size. Every chunk of a sweep
// resolves to the same plan, so a worker builds the grid once per sweep
// instead of once per chunk. It is shared by every goroutine running
// the handler.
type planMemo struct {
	mu        sync.Mutex
	hash      string
	chunkSize int
	plan      *core.SweepPlan
}

// get returns the plan of the canonical request can, whose hash the
// caller has verified to be hash, building it unless it is the last one.
func (m *planMemo) get(can Canonical, hash string, chunkSize int) (*core.SweepPlan, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.plan != nil && m.hash == hash && m.chunkSize == chunkSize {
		return m.plan, nil
	}
	sweep, model, err := can.Plan()
	if err != nil {
		return nil, err
	}
	plan, err := core.PlanSweep(sweep, model, chunkSize)
	if err != nil {
		return nil, err
	}
	m.hash, m.chunkSize, m.plan = hash, chunkSize, plan
	return plan, nil
}

// NewChunkHandler returns the cloud.Handler a distributed sweep worker
// runs: decode the chunk payload, re-canonicalize the request and
// verify the coordinator's hash, check the partition against the
// worker's own plan of the sweep (built once per sweep and shared by
// every goroutine running the handler), evaluate the chunk on eng
// (whose thermal-plan cache warms up across chunks of the same sweep),
// and return the core.ChunkResult in its wire form. The job's
// traceparent joins the worker's chunk span to the coordinator's trace.
func NewChunkHandler(eng *core.Engine, rec *obs.Recorder, log *slog.Logger) cloud.Handler {
	log = obs.OrNop(log)
	var plans planMemo
	return func(j cloud.Job) ([]byte, error) {
		var p chunkPayload
		if err := json.Unmarshal(j.Payload, &p); err != nil {
			return nil, fmt.Errorf("service: decode chunk payload: %w", err)
		}
		can, err := Canonicalize(&p.Request)
		if err != nil {
			return nil, fmt.Errorf("service: canonicalize chunk request: %w", err)
		}
		h := can.Hash()
		if h != p.RequestHash {
			return nil, fmt.Errorf(
				"service: request hash mismatch (coordinator %s, worker %s): refusing the chunk — coordinator and worker resolve the request differently (version skew?)",
				p.RequestHash, h)
		}
		plan, err := plans.get(can, h, p.ChunkSize)
		if err != nil {
			return nil, err
		}
		if p.NumChunks != plan.NumChunks() {
			return nil, fmt.Errorf(
				"service: chunk payload says %d chunks, worker plan has %d: refusing chunk %d — coordinator and worker partition the sweep differently",
				p.NumChunks, plan.NumChunks(), p.Chunk)
		}
		ctx := context.Background()
		if sc, ok := obs.ParseTraceparent(j.Traceparent); ok {
			ctx = obs.WithSpanContext(ctx, sc)
		}
		ctx, span := rec.StartSpan(ctx, "chunk")
		defer span.End()
		from := time.Now()
		cr, err := eng.EvaluateChunk(ctx, plan, p.Chunk)
		if err != nil {
			return nil, err
		}
		log.LogAttrs(ctx, slog.LevelDebug, "chunk evaluated",
			slog.Int("chunk", p.Chunk),
			slog.Int("num_chunks", p.NumChunks),
			slog.Int64("generated", cr.Pruned.Generated),
			slog.Int64("feasible", cr.Pruned.Feasible),
			slog.Float64("duration_seconds", time.Since(from).Seconds()))
		// The codec directly, not json.Marshal: that would re-scan the
		// encoded result to validate it.
		out, err := cr.MarshalJSON()
		if err != nil {
			return nil, fmt.Errorf("service: marshal chunk result: %w", err)
		}
		return out, nil
	}
}

// drainGrace bounds how long a finished coordinator waits for
// connected workers to collect their clean drained nojob before
// forcing the sockets closed.
const drainGrace = 5 * time.Second

// CoordinatorOptions tunes a distributed sweep run.
type CoordinatorOptions struct {
	// ChunkSize is geometries per chunk, one pool job each (0 selects
	// core.DistributedChunkSize, which weighs the fixed cost of
	// shipping a chunk against the tail the last chunk leaves).
	ChunkSize int
	// LeaseDuration bounds how long a worker may hold a chunk before
	// it is requeued to the fleet (0 disables leasing — a crashed
	// worker then strands its chunk, so coordinators serving real
	// fleets should always set one).
	LeaseDuration time.Duration
	// Logger receives pool lifecycle and coordinator progress events.
	Logger *slog.Logger
}

// RunCoordinator runs one sweep distributed over the pool protocol:
// it serves chunk jobs to every worker that connects to ln, merges the
// returned partial frontiers, reads the optima off the merged ones, and
// renders the exact bytes the daemon (and RunOnce) would serve for the
// same request. It returns when every chunk has been merged — surviving
// worker crashes via lease requeue — or when the context is canceled,
// any chunk fails, or a worker returns an undecodable result. ln is
// closed by the time RunCoordinator returns.
func RunCoordinator(ctx context.Context, req *Request, ln net.Listener, rec *obs.Recorder, opts CoordinatorOptions) ([]byte, error) {
	log := obs.OrNop(opts.Logger)
	can, err := Canonicalize(req)
	if err != nil {
		return nil, err
	}
	sweep, model, err := can.Plan()
	if err != nil {
		return nil, err
	}
	plan, err := core.PlanSweep(sweep, model, opts.ChunkSize)
	if err != nil {
		return nil, err
	}

	ctx, root := rec.StartSpan(ctx, "coordinate")
	defer root.End()
	hash := can.Hash()
	jobs := make([]cloud.Job, plan.NumChunks())
	for c := range jobs {
		payload, err := json.Marshal(chunkPayload{
			Request:     *req,
			RequestHash: hash,
			ChunkSize:   plan.ChunkSize(),
			Chunk:       c,
			NumChunks:   plan.NumChunks(),
		})
		if err != nil {
			return nil, fmt.Errorf("service: marshal chunk payload: %w", err)
		}
		// Chunk c is job ID c+1 (pool job IDs are conventionally
		// non-zero); the traceparent joins worker spans to this trace.
		jobs[c] = cloud.Job{ID: uint64(c + 1), Payload: payload, Traceparent: root.Traceparent()}
	}

	pool := cloud.NewPool(jobs)
	pool.Instrument(rec)
	pool.SetLogger(opts.Logger)
	if opts.LeaseDuration > 0 {
		pool.SetLeaseDuration(opts.LeaseDuration)
	}
	serveCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- pool.Serve(serveCtx, ln) }()
	// The job list is complete: Close now so Results terminates once
	// the last chunk resolves.
	pool.Close()
	log.LogAttrs(ctx, slog.LevelInfo, "coordinator started",
		slog.String("request_hash", hash),
		slog.Int("chunks", plan.NumChunks()),
		slog.Int("chunk_size", plan.ChunkSize()),
		slog.Int("geometries", plan.Geometries()))

	merger := core.NewResultMerger(plan)
	results := pool.Results()
drain:
	for {
		select {
		case r, ok := <-results:
			if !ok {
				break drain
			}
			if r.Err != "" {
				// Chunks are deterministic: a handler failure would
				// recur on retry, so surface it instead of spinning.
				return nil, fmt.Errorf("service: chunk %d failed on worker %s: %s",
					r.JobID-1, r.Worker, r.Err)
			}
			// The codec directly, not json.Unmarshal: that would scan
			// the result once more before decoding it.
			var cr core.ChunkResult
			if err := cr.UnmarshalJSON(r.Output); err != nil {
				return nil, fmt.Errorf("service: decode chunk %d result from worker %s: %w",
					r.JobID-1, r.Worker, err)
			}
			// Job ID c+1 asks for chunk c of this plan's partition; any
			// other answer would be merged twice or not at all.
			if want := int(r.JobID) - 1; cr.Chunk != want || cr.NumChunks != plan.NumChunks() {
				return nil, fmt.Errorf(
					"service: worker %s answered chunk %d of %d with chunk %d of %d",
					r.Worker, want, plan.NumChunks(), cr.Chunk, cr.NumChunks)
			}
			merger.Add(cr)
			log.LogAttrs(ctx, slog.LevelDebug, "chunk merged",
				slog.Int("chunk", cr.Chunk),
				slog.String("worker", r.Worker),
				slog.Int("merged", merger.Merged()),
				slog.Int("total", plan.NumChunks()))
		case <-ctx.Done():
			return nil, fmt.Errorf("service: coordinator aborted after %d of %d chunks: %w",
				merger.Merged(), plan.NumChunks(), ctx.Err())
		}
	}
	// Graceful teardown: stop accepting, then let connected workers
	// collect their drained nojob — the protocol's clean exit — and
	// disconnect on their own. Serve returns once the last connection
	// goroutine finishes; cancellation is only the backstop against a
	// hung worker socket wedging the coordinator.
	//lint:ignore droppederr close error on a drained listener is unactionable
	ln.Close()
	select {
	case err := <-serveDone:
		if err != nil {
			return nil, fmt.Errorf("service: pool serve: %w", err)
		}
	case <-time.After(drainGrace):
		log.LogAttrs(ctx, slog.LevelWarn, "worker connections did not drain; forcing shutdown",
			slog.Duration("grace", drainGrace))
		cancel()
		<-serveDone
	}

	res, err := merger.Finish()
	if err != nil {
		return nil, err
	}
	stats := pool.Stats()
	log.LogAttrs(ctx, slog.LevelInfo, "coordinator finished",
		slog.Int("chunks", plan.NumChunks()),
		slog.Int("workers", len(stats.WorkerResults)),
		slog.Int("requeued", stats.JobsRequeued),
		slog.Int64("feasible", res.Pruned.Feasible))
	return marshalResult(can, res)
}

// RunOnce resolves and runs the request on a local engine, returning
// the same bytes the daemon serves and RunCoordinator produces — the
// single-process baseline a distributed run is diffed against.
func RunOnce(ctx context.Context, req *Request, rec *obs.Recorder, log *slog.Logger) ([]byte, error) {
	can, err := Canonicalize(req)
	if err != nil {
		return nil, err
	}
	sweep, model, err := can.Plan()
	if err != nil {
		return nil, err
	}
	eng := core.NewEngine(rec)
	eng.DiscardPoints = true // the result bytes carry no point set, as the daemon's do
	eng.Log = log
	res, err := eng.ExploreContext(ctx, sweep, model)
	if err != nil {
		return nil, err
	}
	return marshalResult(can, res)
}

// planFor exposes the request's resolved sweep plan to tests and
// callers that need the partition without running anything.
func planFor(req *Request, chunkSize int) (*core.SweepPlan, core.Sweep, tco.Model, error) {
	can, err := Canonicalize(req)
	if err != nil {
		return nil, core.Sweep{}, tco.Model{}, err
	}
	sweep, model, err := can.Plan()
	if err != nil {
		return nil, core.Sweep{}, tco.Model{}, err
	}
	plan, err := core.PlanSweep(sweep, model, chunkSize)
	return plan, sweep, model, err
}
