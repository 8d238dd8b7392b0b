package core

import (
	"context"
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

	"asiccloud/internal/dram"
	"asiccloud/internal/obs"
	"asiccloud/internal/pareto"
	"asiccloud/internal/server"
	"asiccloud/internal/tco"
	"asiccloud/internal/thermal"
)

// DefaultChunkSize is the number of geometries a worker claims at a
// time. Small enough to load-balance a dozen workers over a hundred
// geometries, large enough that the claim counter is not contended.
const DefaultChunkSize = 4

// Engine runs design-space explorations as a reusable service instead
// of a one-shot function. It adds three things over the free Explore:
//
//   - Context-aware execution: ExploreContext honors cancellation and
//     deadlines, checking between geometries so an abort returns within
//     one geometry's work, with the partial PruneSummary intact.
//   - A concurrency-safe thermal-plan cache: server.ThermalPlan is a
//     pure function of the geometry (see server.PlanInputs), so the
//     engine memoizes its results — and its errors — across successive
//     sweeps. Repeated sweeps over overlapping grids (studies, figures,
//     scorecards) stop re-running heat-sink optimization entirely.
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
	// points through the same streaming accumulator either way; this
	// only decides whether each chunk's points are also copied out,
	// which costs memory in the feasible-set size. Frontier, optima and
	// Pruned do not depend on it.
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

// thermalPlan memoizes server.ThermalPlan per geometry. Concurrent
// misses on the same key may compute the plan twice; both arrive at the
// identical value (ThermalPlan is pure), so the last store wins
// harmlessly.
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
	plan, err := server.ThermalPlan(cfg)
	e.misses.Add(1)
	e.missCtr.Inc()
	e.mu.Lock()
	e.plans[key] = planEntry{plan: plan, err: err}
	e.mu.Unlock()
	return plan, err
}

// Explore runs the sweep without a deadline; see ExploreContext.
func (e *Engine) Explore(sweep Sweep, model tco.Model) (Result, error) {
	return e.ExploreContext(context.Background(), sweep, model)
}

// evalGeometry evaluates every (stacking option, voltage) configuration
// of one resolved geometry cell, appending the feasible points to pts
// and returning the (possibly grown) scratch slices. This is the
// sweep's innermost loop — everything here runs once per candidate
// configuration, millions of times per sweep, and the ROADMAP's
// configs/sec budget assumes it is allocation-free in steady state;
// the hotalloc analyzer enforces that transitively.
//
//asic:hotpath
func (e *Engine) evalGeometry(s geomSetup, grid *sweepGrid,
	pts []Point, column []server.Evaluation, sum *PruneSummary, ctr *exploreCounters) ([]Point, []server.Evaluation) {

	cfg := s.cfg
	for _, stacked := range grid.stackedOptions {
		cfg.Stacked = stacked
		col, thermalPruned, evalPruned := server.EvaluateColumn(cfg, s.plan, grid.voltages, column[:0])
		column = col
		if thermalPruned > 0 {
			sum.add(PruneThermal, int64(thermalPruned))
			ctr.thermal.Add(int64(thermalPruned))
		}
		if evalPruned > 0 {
			sum.add(PruneEval, int64(evalPruned))
			ctr.evalErr.Add(int64(evalPruned))
		}
		for _, ev := range col {
			//lint:ignore hotalloc appends into the per-worker scratch; capacity tops out at the largest chunk and growth amortizes to zero
			pts = append(pts, Point{
				Evaluation: ev,
				TCO:        grid.model.Of(ev.DollarsPerOp, ev.WattsPerOp),
				Carbon:     grid.carbon.Of(s.embodiedKg, ev.Perf, ev.WallPower),
			})
			sum.Feasible++
			ctr.feasible.Inc()
		}
	}
	return pts, column
}

// pointDollars and pointWatts are the two classic Pareto objectives;
// pointTCO and pointCO2 are the axes of the carbon frontier.
func pointDollars(p Point) float64 { return p.DollarsPerOp }
func pointWatts(p Point) float64   { return p.WattsPerOp }
func pointTCO(p Point) float64     { return p.TCOPerOp() }
func pointCO2(p Point) float64     { return p.CO2PerOp() }

// lessPoint is the deterministic total order results are reported in:
// ascending $ per op/s, then W per op/s, then the configuration
// coordinates so exact metric ties still order identically regardless
// of scheduling. NaN metrics order last (pareto.Compare), keeping the
// sort a strict weak order even for degenerate points. It takes
// pointers: a Point is about a kilobyte, and sorts call it n log n
// times.
func lessPoint(a, b *Point) bool {
	if c := pareto.Compare(a.DollarsPerOp, b.DollarsPerOp); c != 0 {
		return c < 0
	}
	if c := pareto.Compare(a.WattsPerOp, b.WattsPerOp); c != 0 {
		return c < 0
	}
	if c := pareto.Compare(a.Config.Voltage, b.Config.Voltage); c != 0 {
		return c < 0
	}
	if a.Config.Stacked != b.Config.Stacked {
		return !a.Config.Stacked
	}
	if a.Config.ChipsPerLane != b.Config.ChipsPerLane {
		return a.Config.ChipsPerLane < b.Config.ChipsPerLane
	}
	if a.Config.RCAsPerChip != b.Config.RCAsPerChip {
		return a.Config.RCAsPerChip < b.Config.RCAsPerChip
	}
	return a.Config.DRAM.PerASIC < b.Config.DRAM.PerASIC
}

// optAcc tracks a running argmin with lessPoint as the tie-break, so a
// streaming fold selects exactly the point pareto.ArgMin would pick
// from the lessPoint-sorted slice. NaN values never win. Candidates
// arrive by pointer and are copied only when they win.
type optAcc struct {
	ok bool
	v  float64
	p  Point
}

func (a *optAcc) add(v float64, p *Point) {
	if math.IsNaN(v) {
		return
	}
	//lint:ignore floatcmp the tie-break must fire on exact metric equality to mirror ArgMin over a sorted slice
	if !a.ok || v < a.v || (v == a.v && lessPoint(p, &a.p)) {
		a.ok, a.v, a.p = true, v, *p
	}
}

func (a *optAcc) merge(o *optAcc) {
	if o.ok {
		a.add(o.v, &o.p)
	}
}

// point returns the winner, or nil when no candidate was offered.
func (a *optAcc) point() *Point {
	if !a.ok {
		return nil
	}
	p := a.p
	return &p
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
// (Generated == Feasible + PrunedTotal still holds on abort).
//
// Scheduling is deterministic: the geometry list is split into the
// fixed chunks of the sweep's plan, workers claim chunks dynamically
// and run the chunk evaluator EvaluateChunk runs, each folding into
// its own accumulator; the accumulators are merged once at the end
// and finished exactly as ResultMerger finishes. Retained points are
// put in the result order (lessPoint) and copied out once, so Result
// is identical for any worker count, chunk size and scheduling
// interleave.
func (e *Engine) ExploreContext(ctx context.Context, sweep Sweep, model tco.Model) (Result, error) {
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
	keep := !e.DiscardPoints
	var chunkPoints [][]Point
	if keep {
		chunkPoints = make([][]Point, numChunks)
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
				pts, err := e.evalChunk(ctx, plan, c, w, keep, claimed)
				busy += time.Since(chunkFrom)
				chunkSpan.End()
				if err == nil && keep {
					chunkPoints[c] = pts
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
		// Deterministic order regardless of scheduling: sort pointers
		// into the chunk copies (lessPoint is a strict total order over
		// distinct configurations, so any sort yields the same order),
		// then copy each Point once into the exact-size result.
		order := make([]*Point, 0, summary.Feasible)
		for _, pts := range chunkPoints {
			for i := range pts {
				order = append(order, &pts[i])
			}
		}
		sort.Slice(order, func(i, j int) bool { return lessPoint(order[i], order[j]) })
		res.Points = make([]Point, len(order))
		for i, p := range order {
			res.Points[i] = *p
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
// both Explore's thermal early break and FindTCOOptimal's
// coarse-then-refine pass assume an ascending grid. It is exported so
// request canonicalizers (the asiccloudd service) can apply exactly the
// normalization the engine will, making "same grid after normalization"
// and "same request hash" the same statement.
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
