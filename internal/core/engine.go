package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"asiccloud/internal/carbon"
	"asiccloud/internal/dram"
	"asiccloud/internal/obs"
	"asiccloud/internal/pareto"
	"asiccloud/internal/server"
	"asiccloud/internal/tco"
	"asiccloud/internal/thermal"
)

// DefaultChunkSize is the number of geometries an ExploreContext worker
// goroutine claims at a time, in process. A claimed chunk folds into
// the claiming goroutine's accumulator and never leaves it, so a chunk
// costs little more than its claim: small enough to load-balance a
// dozen workers over a hundred geometries, large enough that the claim
// counter is not contended. Distributed sweeps partition by
// DistributedChunkSize instead.
const DefaultChunkSize = 4

// DistributedChunkSize is the number of geometries per chunk PlanSweep
// selects for chunkSize <= 0: the unit a coordinator serves as one pool
// job. Unlike an in-process claim, a distributed chunk has a fixed cost
// on top of its per-geometry evaluation: the worker decodes the
// payload (it re-canonicalizes the request and checks its hash once per
// sweep, not per chunk), and the chunk's local frontier (30-45 points
// on XCode) is encoded as records plus rows, base64-framed in the pool
// message, decoded and split back into rows by the coordinator. Two-worker in-process XCode
// coordinator sweeps (BenchmarkDistributedSweep's fleet, process CPU
// time, 2-vCPU VM) fit about 0.17 s of CPU plus 1.5 ms per chunk (chunk
// sizes 4/16/32/64/128: 0.94/0.38/0.27/0.21/0.19 s per sweep; the
// all-JSON chunk form of older builds cost 3.1 ms per chunk), against
// about 0.27 ms to evaluate one 4-geometry chunk. At 64 the XCode sweep
// is 32 chunks instead of 511; larger chunks save little more CPU and
// lengthen the tail the choice leaves: one chunk, about 3-5 ms of XCode
// evaluation, during which the other workers may have nothing to claim.
const DistributedChunkSize = 64

// Engine runs design-space explorations as a reusable service instead
// of a one-shot function. It adds three things over the free Explore:
//
//   - Context-aware execution: ExploreContext honors cancellation and
//     deadlines, checking between geometries so an abort returns within
//     one geometry's work, with the partial PruneSummary intact.
//   - A concurrency-safe two-level thermal-plan cache. server.ThermalPlan
//     is a pure function of the geometry (see server.PlanInputs), so the
//     engine memoizes its results — and its errors — across successive
//     sweeps: repeated sweeps over overlapping grids (studies, figures,
//     scorecards) stop re-running heat-sink optimization entirely. Below
//     it, the air side of the heat-sink search (the candidate sinks and
//     their airflow solves) depends on the lane shape alone (see
//     server.AirInputs), so a plan miss for a die in a lane shape the
//     engine has seen only scores the cached candidates at the new die
//     area: a fresh XCode sweep solves airflow for its 40 lane shapes,
//     not for each of its 2043 plans.
//   - One sweep path: deterministic chunked scheduling over the same
//     plan, chunk evaluator and streaming fold accumulator that
//     EvaluateChunk and ResultMerger use (see chunks.go), so the
//     in-process, daemon and distributed sweeps produce byte-identical
//     frontiers and optima by construction.
//
// The zero-value fields select defaults; an Engine must be created with
// NewEngine. Engines are safe for concurrent use.
type Engine struct {
	// DiscardPoints leaves Result.Points nil. Every sweep folds its
	// rows through the same streaming accumulator either way; this only
	// decides whether each chunk's rows are also copied out and gathered
	// into Result.Points at the end, which costs memory in the
	// feasible-set size (about 300 bytes per row while the sweep runs,
	// then 300 more per row of the result). Frontier, optima and Pruned
	// do not depend on it.
	DiscardPoints bool
	// ChunkSize is the number of geometries per scheduling chunk
	// (0 selects DefaultChunkSize).
	ChunkSize int
	// Workers caps the sweep's parallelism (0 selects GOMAXPROCS).
	// Results do not depend on the worker count or scheduling order.
	Workers int
	// Log receives sweep start/finish/abort lines with plan-cache
	// hit/miss deltas, correlated to the sweep's trace via the context.
	// Nil logs nothing.
	Log *slog.Logger

	rec *obs.Recorder

	mu    sync.RWMutex
	plans map[planKey]planEntry
	// sinks memoizes server.Config.SinkCandidates per lane shape, under
	// mu like plans; it is created on its first miss.
	sinks map[server.AirInputs]*thermal.SinkCandidates

	hits, misses    atomic.Int64
	hitCtr, missCtr *obs.Counter
}

// planKey identifies a memoized thermal plan: the geometry coordinates
// the sweep varies plus server.PlanInputs, which is by contract exactly
// the set of Config fields ThermalPlan reads. Two keys comparing equal
// therefore guarantee identical plans, even across sweeps with
// different bases sharing one engine.
type planKey struct {
	rcasPerChip  int
	chipsPerLane int
	dramKind     dram.Kind
	dramPerASIC  int
	inputs       server.PlanInputs
}

// planEntry memoizes both outcomes of ThermalPlan: infeasible
// geometries are as expensive to rediscover as feasible ones are to
// re-optimize, so errors are cached too.
type planEntry struct {
	plan thermal.OptimizeResult
	err  error
}

// NewEngine returns an engine with an empty plan cache. The optional
// recorder (nil is a valid no-op) receives the explorer's spans and
// counters plus the engine's plan-cache hit/miss counters.
func NewEngine(rec *obs.Recorder) *Engine {
	reg := rec.Registry()
	reg.SetHelp("asiccloud_engine_plan_cache_hits_total",
		"thermal plans served from the engine's geometry cache")
	reg.SetHelp("asiccloud_engine_plan_cache_misses_total",
		"thermal plans computed by heat-sink optimization (then cached)")
	return &Engine{
		rec:     rec,
		plans:   make(map[planKey]planEntry),
		hitCtr:  rec.Counter("asiccloud_engine_plan_cache_hits_total"),
		missCtr: rec.Counter("asiccloud_engine_plan_cache_misses_total"),
	}
}

// CacheStats is a snapshot of the plan cache's effectiveness.
type CacheStats struct {
	// Hits and Misses count lookups since the engine was created.
	Hits, Misses int64
	// Entries counts resident plans (feasible and infeasible).
	Entries int
}

// CacheStats reports plan-cache hit/miss totals and residency.
func (e *Engine) CacheStats() CacheStats {
	e.mu.RLock()
	n := len(e.plans)
	e.mu.RUnlock()
	return CacheStats{Hits: e.hits.Load(), Misses: e.misses.Load(), Entries: n}
}

// thermalPlan memoizes server.ThermalPlan per geometry; a miss plans
// from the memoized candidate sinks of the geometry's lane shape
// (sinkCandidates). Concurrent misses on the same key may compute the
// plan twice; both arrive at the identical value (ThermalPlan is pure),
// so the last store wins harmlessly.
func (e *Engine) thermalPlan(cfg server.Config) (thermal.OptimizeResult, error) {
	key := planKey{
		rcasPerChip:  cfg.RCAsPerChip,
		chipsPerLane: cfg.ChipsPerLane,
		dramKind:     cfg.DRAM.Device.Kind,
		dramPerASIC:  cfg.DRAM.PerASIC,
		inputs:       cfg.PlanInputs(),
	}
	e.mu.RLock()
	ent, ok := e.plans[key]
	e.mu.RUnlock()
	if ok {
		e.hits.Add(1)
		e.hitCtr.Inc()
		return ent.plan, ent.err
	}
	plan, err := server.ThermalPlanFrom(cfg, e.sinkCandidates)
	e.misses.Add(1)
	e.missCtr.Inc()
	e.mu.Lock()
	e.plans[key] = planEntry{plan: plan, err: err}
	e.mu.Unlock()
	return plan, err
}

// sinkCandidates memoizes server.Config.SinkCandidates per lane shape
// (server.AirInputs, by contract exactly the fields it reads), so the
// airflow of each candidate sink is solved once per engine, not once
// per plan. Concurrent misses may build a set twice; both are identical.
func (e *Engine) sinkCandidates(cfg server.Config) *thermal.SinkCandidates {
	key := cfg.AirInputs()
	e.mu.RLock()
	c, ok := e.sinks[key]
	e.mu.RUnlock()
	if ok {
		return c
	}
	c = cfg.SinkCandidates()
	e.mu.Lock()
	if e.sinks == nil {
		e.sinks = make(map[server.AirInputs]*thermal.SinkCandidates)
	}
	e.sinks[key] = c
	e.mu.Unlock()
	return c
}

// Explore runs the sweep without a deadline; see ExploreContext.
func (e *Engine) Explore(sweep Sweep, model tco.Model) (Result, error) {
	return e.ExploreContext(context.Background(), sweep, model)
}

// Row is one feasible configuration as the sweep evaluates, prices and
// folds it, and the form keep mode retains in Result.Points: the
// per-voltage server.Row, its TCO and carbon breakdowns, and a pointer
// to its geometry's server.Record. At about 300 bytes it is a third of
// the Point it stands for; Point builds that Point, and the sweep
// builds Points only for the frontiers it reports.
type Row struct {
	server.Row
	TCO    tco.Breakdown
	Carbon carbon.Breakdown
	// Record is the per-geometry half of the configuration. Every row
	// of one geometry points at the same Record, so it is read-only: a
	// write through one row would change all of them.
	Record *server.Record
}

// Point builds the full Point the row stands for.
func (r *Row) Point() Point {
	p := Point{TCO: r.TCO, Carbon: r.Carbon}
	server.Join(&p.Evaluation, r.Record, &r.Row)
	return p
}

// evalGeometry evaluates every (stacking option, voltage) configuration
// of one resolved geometry cell straight into rows that share rec,
// appending the feasible ones to rows (TCO and carbon priced in place)
// and returning the (possibly grown) scratch. It walks each voltage
// column itself: one server.Column per stacking option, the grid's
// operating point at each voltage, and the thermal early break (chip
// heat grows with voltage, so the first ErrThermal prunes its voltage
// and every higher one). This is the sweep's innermost loop —
// everything here runs once per candidate configuration, millions of
// times per sweep, and it must stay allocation-free in steady state:
// TestWarmStreamingSweepAllocs measures that over three warm sweeps
// that between them take every branch of server.Column.Eval.
func (e *Engine) evalGeometry(s *geomSetup, grid *sweepGrid, rec *server.Record,
	rows []Row, sum *PruneSummary, ctr *exploreCounters) []Row {

	cfg := s.cfg
	nv := len(grid.ops)
	for _, stacked := range grid.stackedOptions {
		cfg.Stacked = stacked
		col, err := server.NewColumn(rec, &cfg, &s.plan)
		if err != nil {
			sum.add(PruneEval, int64(nv))
			ctr.evalErr.Add(int64(nv))
			continue
		}
		first := len(rows)
		var thermalPruned, evalPruned int
		for i := range grid.ops {
			if !grid.opOK[i] {
				evalPruned++
				continue
			}
			n := len(rows)
			if n == cap(rows) {
				// Room for the column's remaining voltages, or append's
				// doubling if that is more. The per-worker scratch stops
				// growing at the largest chunk (one geometry when
				// streaming).
				rows = slices.Grow(rows, nv-i)
			}
			r := &rows[:n+1][n]
			err := col.Eval(&cfg, &grid.ops[i], &r.Row)
			if err == nil {
				r.TCO = grid.model.Of(r.DollarsPerOp, r.WattsPerOp)
				r.Carbon = grid.carbon.Of(s.embodiedKg, r.Perf, r.WallPower)
				r.Record = rec
				rows = rows[:n+1]
				continue
			}
			if errors.Is(err, server.ErrThermal) {
				thermalPruned = nv - i
				break
			}
			evalPruned++
		}
		if thermalPruned > 0 {
			sum.add(PruneThermal, int64(thermalPruned))
			ctr.thermal.Add(int64(thermalPruned))
		}
		if evalPruned > 0 {
			sum.add(PruneEval, int64(evalPruned))
			ctr.evalErr.Add(int64(evalPruned))
		}
		feasible := int64(len(rows) - first)
		sum.Feasible += feasible
		ctr.feasible.Add(feasible)
	}
	return rows
}

// rowDollars and rowWatts are the two classic Pareto objectives;
// rowTCO and rowCO2 are the axes of the carbon frontier.
func rowDollars(r Row) float64 { return r.DollarsPerOp }
func rowWatts(r Row) float64   { return r.WattsPerOp }
func rowTCO(r Row) float64     { return r.TCO.Total() }
func rowCO2(r Row) float64     { return r.Carbon.Total() }

// lessRow is the deterministic total order frontiers are built in, and
// so the order the optimum tie rule follows: ascending $ per op/s, then
// W per op/s, then the configuration coordinates so exact metric ties
// still order identically regardless of scheduling. NaN metrics order
// last (pareto.Compare), keeping the sort a strict weak order even for
// degenerate points.
func lessRow(a, b *Row) bool {
	if c := pareto.Compare(a.DollarsPerOp, b.DollarsPerOp); c != 0 {
		return c < 0
	}
	if c := pareto.Compare(a.WattsPerOp, b.WattsPerOp); c != 0 {
		return c < 0
	}
	if c := pareto.Compare(a.Voltage, b.Voltage); c != 0 {
		return c < 0
	}
	if a.Stacked != b.Stacked {
		return !a.Stacked
	}
	ga, gb := &a.Record.Config, &b.Record.Config
	if ga.ChipsPerLane != gb.ChipsPerLane {
		return ga.ChipsPerLane < gb.ChipsPerLane
	}
	if ga.RCAsPerChip != gb.RCAsPerChip {
		return ga.RCAsPerChip < gb.RCAsPerChip
	}
	return ga.DRAM.PerASIC < gb.DRAM.PerASIC
}

// geom is one deduplicated cell of the geometry grid.
type geom struct {
	rcasPerChip int
	chipsLane   int
	dramPerASIC int
}

// ExploreContext runs the brute-force search in parallel, checking ctx
// between geometries: on cancellation or deadline it stops within one
// geometry's work and returns a context.Canceled- (or
// DeadlineExceeded-) wrapped error alongside a Result whose Pruned
// summary exactly accounts for the configurations evaluated so far
// (Generated == Feasible + the sum of Reasons still holds on abort).
//
// Scheduling is deterministic: the geometry list is split into the
// fixed chunks of the sweep's plan, workers claim chunks dynamically
// and run the chunk evaluator EvaluateChunk runs, each folding into
// its own accumulator; the accumulators are merged once at the end
// and finished exactly as ResultMerger finishes. Retained rows are
// gathered once into Result.Points by concatenating the chunks' rows in
// chunk order, which is evaluation order (see Result.Points), so
// Result is identical for any worker count, chunk size and scheduling
// interleave.
func (e *Engine) ExploreContext(ctx context.Context, sweep Sweep, model tco.Model) (Result, error) {
	return e.explore(ctx, sweep, model, !e.DiscardPoints)
}

// FindTCOOptimal returns the TCO-optimal design of the sweep: the
// TCOOptimal of one streaming (DiscardPoints) sweep on this engine, so
// it shares the engine's thermal-plan cache and equals Explore's
// answer by construction.
func (e *Engine) FindTCOOptimal(sweep Sweep, model tco.Model) (Point, error) {
	res, err := e.explore(context.Background(), sweep, model, false)
	return res.TCOOptimal, err
}

// FindTCOOptimal is Engine.FindTCOOptimal over a fresh Engine. Callers
// that also Explore should share one Engine so both reuse the same
// thermal-plan cache.
func FindTCOOptimal(sweep Sweep, model tco.Model) (Point, error) {
	return NewEngine(nil).FindTCOOptimal(sweep, model)
}

// explore is ExploreContext with row retention chosen per call: keep
// also returns every feasible row in Result.Points.
func (e *Engine) explore(ctx context.Context, sweep Sweep, model tco.Model, keep bool) (Result, error) {
	rec := e.rec
	// Parent under whatever the context carries (the daemon's job span,
	// a remote traceparent) so one request is one connected trace; with
	// a bare context this starts a fresh trace, as Explore always did.
	ctx, root := rec.StartSpan(ctx, "explore")
	defer root.End()
	log := obs.OrNop(e.Log)
	from := time.Now()
	hits0, misses0 := e.hits.Load(), e.misses.Load()
	ctr := newExploreCounters(rec)

	gridSpan := root.Child("grid_build")
	grid, err := buildGrid(sweep, model)
	gridSpan.End()
	if err != nil {
		return Result{}, err
	}
	plan := grid.plan(e.ChunkSize)
	// Quantized cells enter (and leave) the pipeline at grid build; the
	// surviving geometries are counted as workers actually claim them,
	// so an aborted sweep's accounting stays exact.
	total := newSweepAcc(plan.GridSummary())
	ctr.configs.Add(grid.summary.Generated)
	ctr.quantized.Add(grid.summary.Reasons[PruneQuantization])
	ctr.duplicates.Add(grid.summary.Duplicates)
	if len(grid.work) == 0 {
		return Result{Pruned: total.summary}, emptySpaceError(total.summary)
	}

	sweepSpan := root.Child("sweep")
	sweepCtx := obs.WithSpan(ctx, sweepSpan)
	numChunks := plan.NumChunks()
	var chunkRows [][]Row
	if keep {
		chunkRows = make([][]Row, numChunks)
	}
	n := e.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	workers := make([]chunkWorker, min(n, numChunks))
	var (
		wg        sync.WaitGroup
		nextChunk atomic.Int64
		processed atomic.Int64
	)
	claimed := func() {
		done := processed.Add(1)
		if sweep.Progress != nil {
			sweep.Progress(int(done), len(grid.work))
		}
	}
	log.LogAttrs(ctx, slog.LevelInfo, "sweep started",
		slog.Int("geometries", len(grid.work)),
		slog.Int("workers", len(workers)),
		slog.Int("chunks", numChunks),
		slog.Int("voltages", len(grid.voltages)))
	for i := range workers {
		w := &workers[i]
		*w = chunkWorker{acc: newSweepAcc(PruneSummary{}), ctr: &ctr}
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			workerFrom := time.Now()
			var busy time.Duration
			for ctx.Err() == nil {
				c := int(nextChunk.Add(1)) - 1
				if c >= numChunks {
					break
				}
				_, chunkSpan := rec.StartSpan(sweepCtx, "chunk")
				chunkFrom := time.Now()
				rows, err := e.evalChunk(ctx, plan, c, w, keep, claimed)
				busy += time.Since(chunkFrom)
				chunkSpan.End()
				if err == nil && keep {
					chunkRows[c] = rows
				}
			}
			if elapsed := time.Since(workerFrom); elapsed > 0 {
				rec.Gauge("asiccloud_explore_worker_utilization",
					"worker", strconv.Itoa(worker)).Set(busy.Seconds() / elapsed.Seconds())
			}
		}(i)
	}
	wg.Wait()
	sweepSpan.End()
	for i := range workers {
		total.merge(&workers[i].acc)
	}
	summary := total.summary

	if err := ctx.Err(); err != nil {
		log.LogAttrs(ctx, slog.LevelWarn, "sweep aborted",
			slog.Int64("processed_geometries", processed.Load()),
			slog.Int("total_geometries", len(grid.work)),
			slog.String("cause", err.Error()))
		return Result{Pruned: summary}, fmt.Errorf(
			"core: exploration aborted after %d of %d geometries (%s): %w",
			processed.Load(), len(grid.work), summary, err)
	}
	log.LogAttrs(ctx, slog.LevelInfo, "sweep finished",
		slog.Int64("generated", summary.Generated),
		slog.Int64("feasible", summary.Feasible),
		slog.Int64("plan_cache_hits", e.hits.Load()-hits0),
		slog.Int64("plan_cache_misses", e.misses.Load()-misses0),
		slog.Float64("duration_seconds", time.Since(from).Seconds()))

	paretoSpan := root.Child("pareto")
	res, err := total.finish()
	if err == nil && keep {
		res.Points = make([]Row, 0, summary.Feasible)
		for _, rows := range chunkRows {
			res.Points = append(res.Points, rows...)
		}
	}
	paretoSpan.End()
	if err != nil {
		return res, err
	}
	rec.Gauge("asiccloud_explore_frontier_size").Set(float64(len(res.Frontier)))
	return res, nil
}

// NormalizeVoltages returns a sorted, de-duplicated copy of a
// user-supplied voltage grid (V), rejecting non-positive (or NaN)
// entries outright — operating voltages are physical quantities, and
// Explore's thermal early break assumes an ascending grid. It is
// exported so request canonicalizers (the asiccloudd service) can apply
// exactly the normalization the engine will, making "same grid after
// normalization" and "same request hash" the same statement.
func NormalizeVoltages(vs []float64) ([]float64, error) {
	out := make([]float64, 0, len(vs))
	for _, v := range vs {
		if math.IsNaN(v) || v <= 0 {
			return nil, fmt.Errorf("core: invalid operating voltage %v in Sweep.Voltages (must be positive)", v)
		}
		out = append(out, v)
	}
	sort.Float64s(out)
	// Compact drops entries equal (==) to their predecessor: it targets
	// bit-identical grid entries, and distinct near-duplicates are kept
	// by design.
	return slices.Compact(out), nil
}
