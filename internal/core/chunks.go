package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"asiccloud/internal/carbon"
	"asiccloud/internal/dram"
	"asiccloud/internal/pareto"
	"asiccloud/internal/server"
	"asiccloud/internal/tco"
	"asiccloud/internal/thermal"
)

// This file is the sweep's one path. Every sweep — ExploreContext in
// process, a distributed worker's EvaluateChunk, the coordinator's
// ResultMerger and the FindTCOOptimal fast path — is built from the
// same pieces:
//
//   - buildGrid resolves a Sweep into the deterministic voltage grid
//     and deduplicated geometry work list, with grid-construction
//     prunes (quantization, duplicates) accounted exactly once;
//   - setupGeom resolves one geometry (DRAM subsystem, memoized thermal
//     plan, embodied carbon) and evalCell walks its voltage column,
//     identically wherever it runs;
//   - evalChunk evaluates chunk c = work[c*size : (c+1)*size] of the
//     plan's partition into a sweepAcc, the one fold accumulator.
//     ExploreContext's workers each fold their chunks into their own
//     accumulator and merge them once at the end; EvaluateChunk folds
//     one chunk into a fresh accumulator and ships it as a ChunkResult;
//     ResultMerger folds ChunkResults back into an accumulator. All of
//     them finish through sweepAcc.finish.
//
// Because pareto.Fold merge is associative and order-independent and
// optAcc merge is commutative, the finished Result is byte-identical
// regardless of worker count, which worker or process evaluated which
// chunk, how chunks were requeued, or arrival order.

// sweepGrid is the resolved, deterministic form of a Sweep: the base
// configuration and economic model, the normalized voltage grid, the
// deduplicated geometry work list, and the prune accounting of grid
// construction itself.
type sweepGrid struct {
	base           server.Config
	model          tco.Model
	voltages       []float64
	stackedOptions []bool
	// carbon is the resolved emission model (Sweep.Carbon or the
	// default), validated once at grid build so every chunk of a sweep
	// — local or remote — prices carbon identically.
	carbon carbon.Model
	// perGeom is the candidate-configuration count one geometry spawns.
	perGeom int64
	work    []geom
	// summary holds the grid-build prunes: quantized cells and
	// duplicate geometries. Per-geometry prunes are counted where the
	// geometry is evaluated, so a distributed sweep counts each prune
	// exactly once.
	summary PruneSummary
}

// buildGrid validates the sweep and model and resolves the sweep's
// grids and geometry work list. An empty work list is not an error
// here: ExploreContext reports it with the grid summary attached.
func buildGrid(sweep Sweep, model tco.Model) (*sweepGrid, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if err := sweep.Base.RCA.Validate(); err != nil {
		return nil, err
	}
	g := &sweepGrid{base: sweep.Base, model: model, carbon: carbon.Default()}
	if sweep.Carbon != nil {
		g.carbon = *sweep.Carbon
	}
	if err := g.carbon.Validate(); err != nil {
		return nil, err
	}
	voltages := sweep.Voltages
	if len(voltages) > 0 {
		var err error
		// The thermal early break prunes "all higher voltages" after the
		// first ErrThermal, which is only sound on an ascending grid: a
		// user-supplied unsorted list would prune voltages that are
		// actually lower and feasible.
		if voltages, err = NormalizeVoltages(voltages); err != nil {
			return nil, err
		}
		// Reject out-of-range grids once, before the sweep: every point
		// of an out-of-range voltage would otherwise fail inside
		// vlsi.Spec.At per configuration (constructing an error each
		// time) and be silently counted as an eval prune. Failing loudly
		// here is both cheaper and more honest.
		lo, hi := sweep.Base.RCA.MinVoltage(), sweep.Base.RCA.MaxVoltage()
		if voltages[0] < lo-1e-9 || voltages[len(voltages)-1] > hi+1e-9 {
			return nil, fmt.Errorf(
				"core: voltage grid [%.3f, %.3f] V outside the RCA's operating range [%.3f, %.3f] V",
				voltages[0], voltages[len(voltages)-1], lo, hi)
		}
	} else {
		voltages = VoltageGrid(sweep.Base.RCA.MinVoltage(), sweep.Base.RCA.MaxVoltage())
	}
	if len(voltages) == 0 {
		return nil, fmt.Errorf(
			"core: empty voltage grid (RCA voltage range %.2f..%.2f V; need 0 <= lo <= hi)",
			sweep.Base.RCA.MinVoltage(), sweep.Base.RCA.MaxVoltage())
	}
	g.voltages = voltages
	silicon := sweep.SiliconPerLane
	if len(silicon) == 0 {
		silicon = DefaultSiliconPerLane()
	}
	chips := sweep.ChipsPerLane
	if len(chips) == 0 {
		chips = DefaultChipsPerLane()
	}
	drams := sweep.DRAMPerASIC
	if len(drams) == 0 {
		drams = []int{0}
	}
	g.stackedOptions = []bool{false}
	if sweep.Stacked {
		g.stackedOptions = append(g.stackedOptions, true)
	}
	g.perGeom = int64(len(g.stackedOptions)) * int64(len(voltages))

	// Build the geometry work list, de-duplicating silicon targets that
	// quantize to the same RCAs per chip.
	seen := make(map[geom]bool)
	for _, sil := range silicon {
		for _, n := range chips {
			r := int(math.Round(sil / float64(n) / sweep.Base.RCA.Area))
			if r < 1 {
				// The whole (silicon, chips) cell — every DRAM count,
				// stacking option and voltage — dies to quantization.
				cell := int64(len(drams)) * g.perGeom
				g.summary.Generated += cell
				g.summary.add(PruneQuantization, cell)
				continue
			}
			for _, d := range drams {
				cell := geom{rcasPerChip: r, chipsLane: n, dramPerASIC: d}
				if seen[cell] {
					g.summary.Duplicates++
					continue
				}
				seen[cell] = true
				g.work = append(g.work, cell)
			}
		}
	}
	return g, nil
}

// emptySpaceError is the shared "nothing to sweep" report: the summary
// rides along so callers see the per-reason counts, not a bare message.
func emptySpaceError(summary PruneSummary) error {
	return fmt.Errorf(
		"core: empty design space: every silicon/chips combination quantizes below one RCA per chip (%s)",
		summary)
}

// geomSetup is one geometry resolved for evaluation: its configuration with
// the DRAM subsystem in place, its memoized thermal plan, and its
// embodied carbon.
type geomSetup struct {
	cfg        server.Config
	plan       thermal.OptimizeResult
	embodiedKg float64
}

// setupGeom resolves geometry g of the grid. A non-empty reason names the
// prune that rules out the whole cell at every voltage. Embodied carbon
// is a pure function of the geometry — die area and chip count are
// constant across the voltage column — so it is computed once per cell
// and amortized per point.
func (e *Engine) setupGeom(g geom, grid *sweepGrid) (s geomSetup, reason string) {
	s.cfg = grid.base
	s.cfg.RCAsPerChip = g.rcasPerChip
	s.cfg.ChipsPerLane = g.chipsLane
	s.cfg.DRAM = dram.Subsystem{}
	if g.dramPerASIC > 0 {
		sub, err := dram.NewSubsystem(grid.base.DRAM.Device.Kind, g.dramPerASIC)
		if err != nil {
			return s, PruneDRAM
		}
		s.cfg.DRAM = sub
	}
	plan, err := e.thermalPlan(s.cfg)
	if err != nil {
		// Geometry does not fit at any voltage.
		return s, PruneThermal
	}
	s.plan = plan
	s.embodiedKg = grid.carbon.EmbodiedServerKg(s.cfg.Process, s.cfg.DieArea(),
		s.cfg.ChipsPerLane*s.cfg.Lanes)
	return s, ""
}

// evalCell evaluates one deduplicated geometry cell: setupGeom, then the
// per-voltage column walk (evalGeometry). Feasible points are appended
// to scratch; every candidate the cell generates is accounted in sum.
// The returned slices are the (possibly grown) scratch buffers.
func (e *Engine) evalCell(g geom, grid *sweepGrid, scratch []Point, column []server.Evaluation,
	sum *PruneSummary, ctr *exploreCounters) ([]Point, []server.Evaluation) {

	sum.Generated += grid.perGeom
	ctr.configs.Add(grid.perGeom)
	s, reason := e.setupGeom(g, grid)
	switch reason {
	case PruneDRAM:
		ctr.dramErr.Add(grid.perGeom)
	case PruneThermal:
		ctr.thermal.Add(grid.perGeom)
	default:
		return e.evalGeometry(s, grid, scratch, column, sum, ctr)
	}
	sum.add(reason, grid.perGeom)
	return scratch, column
}

// SweepPlan is the deterministic partition of a sweep into chunks: the
// unit a distributed coordinator enumerates, serializes, and fans out.
// The same (Sweep, chunk size) always yields the same partition, so a
// chunk index is a stable work identity across processes and retries.
type SweepPlan struct {
	grid      *sweepGrid
	chunkSize int
}

// PlanSweep validates the sweep and resolves its chunk partition.
// chunkSize <= 0 selects DefaultChunkSize. The "empty design space"
// failure mode is reported here, exactly as ExploreContext reports it.
func PlanSweep(sweep Sweep, model tco.Model, chunkSize int) (*SweepPlan, error) {
	grid, err := buildGrid(sweep, model)
	if err != nil {
		return nil, err
	}
	if len(grid.work) == 0 {
		return nil, emptySpaceError(grid.summary)
	}
	return grid.plan(chunkSize), nil
}

// plan partitions the grid's work list into chunks of chunkSize
// geometries (<= 0 selects DefaultChunkSize).
func (g *sweepGrid) plan(chunkSize int) *SweepPlan {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return &SweepPlan{grid: g, chunkSize: chunkSize}
}

// ChunkSize is the geometry count per chunk (the last chunk may be
// short).
func (p *SweepPlan) ChunkSize() int { return p.chunkSize }

// Geometries is the deduplicated geometry count in the work list.
func (p *SweepPlan) Geometries() int { return len(p.grid.work) }

// NumChunks is how many chunks the work list partitions into.
func (p *SweepPlan) NumChunks() int {
	return (len(p.grid.work) + p.chunkSize - 1) / p.chunkSize
}

// GridSummary returns the grid-construction prune accounting
// (quantized cells, duplicate geometries). It seeds a ResultMerger
// exactly once; chunk results deliberately exclude these counts so a
// re-evaluated (requeued) chunk cannot double-count them.
func (p *SweepPlan) GridSummary() PruneSummary {
	var s PruneSummary
	s.merge(p.grid.summary)
	return s
}

// ChunkResult is one chunk's contribution to a sweep: the chunk-local
// Pareto fold survivors, the four chunk-local optimum candidates, and
// the chunk's exact per-geometry prune accounting. It is the payload a
// distributed worker returns; its JSON form is the compact one
// MarshalJSON and UnmarshalJSON define (see chunkwire.go), and float64
// values survive it exactly (encoding/json emits the shortest
// round-tripping form).
type ChunkResult struct {
	Chunk     int
	NumChunks int
	// Frontier is the chunk-local fold's survivor set in (dollars,
	// watts) staircase order — not the global frontier; merging every
	// chunk's survivors reproduces it.
	Frontier []Point
	// CarbonFrontier is the chunk-local (TCO per op/s, kg CO2e per
	// op/s) fold's survivor set, merged the same way Frontier is.
	CarbonFrontier []Point
	// EnergyOptimal, CostOptimal, TCOOptimal and CarbonOptimal are the
	// chunk's argmin candidates under the engine's deterministic
	// tie-break; nil when the chunk has no feasible point.
	EnergyOptimal *Point
	CostOptimal   *Point
	TCOOptimal    *Point
	CarbonOptimal *Point
	// Pruned accounts the chunk's own candidates only (thermal, DRAM
	// and eval prunes plus feasible counts); grid-build prunes live in
	// SweepPlan.GridSummary.
	Pruned PruneSummary
}

// sweepAcc is the sweep's one fold accumulator: the (dollars, watts)
// and (TCO, CO2e) Pareto folds, the four optimum accumulators and the
// prune accounting. Memory is O(frontier), however many points flow
// through. An accumulator is not safe for concurrent use: each sweep
// worker owns one, and they are merged once the workers are done.
type sweepAcc struct {
	fold, cfold                     *pareto.Fold[Point]
	energy, cost, tcoOpt, carbonOpt optAcc
	summary                         PruneSummary
}

// newSweepAcc returns an empty accumulator seeded with summary.
func newSweepAcc(summary PruneSummary) sweepAcc {
	return sweepAcc{
		fold:    pareto.NewFold(pointDollars, pointWatts),
		cfold:   pareto.NewFold(pointTCO, pointCO2),
		summary: summary,
	}
}

// add folds one feasible point in; the point's feasible count is
// accounted where it is evaluated. The sweep calls add once per
// feasible configuration.
//
//asic:hotpath
func (a *sweepAcc) add(p *Point) {
	a.fold.Add(*p)
	a.cfold.Add(*p)
	a.energy.add(p.WattsPerOp, p)
	a.cost.add(p.DollarsPerOp, p)
	a.tcoOpt.add(p.TCOPerOp(), p)
	a.carbonOpt.add(p.CO2PerOp(), p)
}

// merge folds o's survivors, optimum candidates and accounting into a.
func (a *sweepAcc) merge(o *sweepAcc) {
	a.fold.Merge(o.fold)
	a.cfold.Merge(o.cfold)
	a.energy.merge(&o.energy)
	a.cost.merge(&o.cost)
	a.tcoOpt.merge(&o.tcoOpt)
	a.carbonOpt.merge(&o.carbonOpt)
	a.summary.merge(o.summary)
}

// chunkResult is the accumulator's wire form for chunk c of n.
func (a *sweepAcc) chunkResult(c, n int) ChunkResult {
	return ChunkResult{
		Chunk:          c,
		NumChunks:      n,
		Frontier:       a.fold.Points(),
		CarbonFrontier: a.cfold.Points(),
		EnergyOptimal:  a.energy.point(),
		CostOptimal:    a.cost.point(),
		TCOOptimal:     a.tcoOpt.point(),
		CarbonOptimal:  a.carbonOpt.point(),
		Pruned:         a.summary,
	}
}

// addChunk folds a chunk's wire form in, the inverse of chunkResult:
// merging the ChunkResult of accumulator o is merging o.
func (a *sweepAcc) addChunk(cr ChunkResult) {
	for _, p := range cr.Frontier {
		a.fold.Add(p)
	}
	for _, p := range cr.CarbonFrontier {
		a.cfold.Add(p)
	}
	if p := cr.EnergyOptimal; p != nil {
		a.energy.add(p.WattsPerOp, p)
	}
	if p := cr.CostOptimal; p != nil {
		a.cost.add(p.DollarsPerOp, p)
	}
	if p := cr.TCOOptimal; p != nil {
		a.tcoOpt.add(p.TCOPerOp(), p)
	}
	if p := cr.CarbonOptimal; p != nil {
		a.carbonOpt.add(p.CO2PerOp(), p)
	}
	a.summary.merge(cr.Pruned)
}

// finish turns the accumulator into the reported Result; it is the
// only place a Result's frontiers and optima are made. Each fold's
// survivor set is order-independent; sorting it by lessPoint and
// re-running Frontier applies the same duplicate tie-breaking a
// frontier pass over every sorted point would, so both the (dollars,
// watts) frontier and the (TCO, CO2e) frontier are byte-identical
// however the points were folded and merged. Pruned is populated even
// on the no-feasible-point error.
//
//asic:canonical
func (a *sweepAcc) finish() (Result, error) {
	res := Result{Pruned: a.summary}
	if a.summary.Feasible == 0 {
		return res, fmt.Errorf(
			"core: no feasible design point in the swept space (%s)", a.summary)
	}
	surv := a.fold.Points()
	sort.Slice(surv, func(i, j int) bool { return lessPoint(&surv[i], &surv[j]) })
	fr := pareto.Frontier(surv, pointDollars, pointWatts)
	res.Frontier = pareto.Select(surv, fr)
	csurv := a.cfold.Points()
	sort.Slice(csurv, func(i, j int) bool { return lessPoint(&csurv[i], &csurv[j]) })
	cfr := pareto.Frontier(csurv, pointTCO, pointCO2)
	res.CarbonFrontier = pareto.Select(csurv, cfr)
	res.EnergyOptimal = a.energy.p
	res.CostOptimal = a.cost.p
	res.TCOOptimal = a.tcoOpt.p
	res.CarbonOptimal = a.carbonOpt.p
	return res, nil
}

// chunkWorker is one evaluator's state, reused across the chunks it
// runs: the accumulator its points fold into, the sweep's counters, and
// scratch buffers that stop growing once they have seen the largest
// geometry (the largest chunk when points are kept), so a steady-state
// sweep does not allocate per configuration (see BenchmarkRepeatedSweep
// with -benchmem).
type chunkWorker struct {
	acc    sweepAcc
	ctr    *exploreCounters
	pts    []Point
	column []server.Evaluation
}

// evalChunk is the sweep's one chunk evaluator: it evaluates chunk c of
// the plan's partition and folds every feasible point into w.acc. It
// checks ctx between geometries and returns ctx's error on an early
// stop, with every geometry it did evaluate exactly accounted in
// w.acc. claimed, when non-nil, runs as each geometry starts. With keep
// set the chunk's points are also returned, in evaluation order, as an
// exact-size copy; otherwise the point scratch is reset per geometry.
func (e *Engine) evalChunk(ctx context.Context, plan *SweepPlan, c int, w *chunkWorker,
	keep bool, claimed func()) ([]Point, error) {

	lo := c * plan.chunkSize
	hi := min(lo+plan.chunkSize, len(plan.grid.work))
	w.pts = w.pts[:0]
	for _, g := range plan.grid.work[lo:hi] {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if claimed != nil {
			claimed()
		}
		if !keep {
			w.pts = w.pts[:0]
		}
		n := len(w.pts)
		w.pts, w.column = e.evalCell(g, plan.grid, w.pts, w.column, &w.acc.summary, w.ctr)
		for i := n; i < len(w.pts); i++ {
			w.acc.add(&w.pts[i])
		}
	}
	if !keep {
		return nil, nil
	}
	pts := make([]Point, len(w.pts))
	copy(pts, w.pts)
	return pts, nil
}

// EvaluateChunk evaluates one chunk of the plan's deterministic
// partition on this engine — the distributed worker's unit of work. It
// runs the chunk evaluator ExploreContext's workers run, over the same
// partition, into a fresh accumulator, so evaluating every chunk
// exactly once (on any mix of processes and engines) and merging with
// ResultMerger reproduces ExploreContext's Result byte for byte. The
// plan is read-only here, so a worker builds it once per sweep and
// shares it across its chunks and goroutines; the engine's
// thermal-plan cache carries over between chunks, so a worker handling
// many chunks of one sweep warms up just like a local worker goroutine
// would.
func (e *Engine) EvaluateChunk(ctx context.Context, plan *SweepPlan, chunk int) (ChunkResult, error) {
	if chunk < 0 || chunk >= plan.NumChunks() {
		return ChunkResult{}, fmt.Errorf(
			"core: chunk %d out of range (sweep has %d chunks of %d geometries)",
			chunk, plan.NumChunks(), plan.chunkSize)
	}
	ctr := newExploreCounters(e.rec)
	w := chunkWorker{acc: newSweepAcc(PruneSummary{}), ctr: &ctr}
	if _, err := e.evalChunk(ctx, plan, chunk, &w, false, nil); err != nil {
		return ChunkResult{}, fmt.Errorf("core: chunk %d aborted: %w", chunk, err)
	}
	return w.acc.chunkResult(chunk, plan.NumChunks()), nil
}

// ResultMerger folds ChunkResults back into one Result. Merging is
// order-independent and tolerant of which worker produced each chunk;
// the caller guarantees each chunk index is merged exactly once (the
// pool's first-result-wins dedup provides this under requeue).
type ResultMerger struct {
	sweepAcc
	merged int
}

// NewResultMerger seeds a merger with the plan's grid-build prune
// accounting (counted exactly once per sweep, never per chunk).
func NewResultMerger(plan *SweepPlan) *ResultMerger {
	return &ResultMerger{sweepAcc: newSweepAcc(plan.GridSummary())}
}

// Add folds one chunk's contribution in.
func (m *ResultMerger) Add(cr ChunkResult) {
	m.addChunk(cr)
	m.merged++
}

// Merged is how many chunks have been folded in.
func (m *ResultMerger) Merged() int { return m.merged }

// Finish assembles the final Result through the finish ExploreContext
// uses, so the output is byte-identical to a single-process run once
// every chunk has been merged. The Pruned summary is populated even on
// the no-feasible-point error, mirroring ExploreContext.
func (m *ResultMerger) Finish() (Result, error) { return m.finish() }
