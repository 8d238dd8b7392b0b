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
// process (and FindTCOOptimal/FindCarbonOptimal, which are streaming
// ExploreContexts), a distributed worker's EvaluateChunk and the
// coordinator's ResultMerger — is built from the same pieces:
//
//   - buildGrid resolves a Sweep into the deterministic voltage grid
//     and deduplicated geometry work list, with grid-construction
//     prunes (quantization, duplicates) accounted exactly once;
//   - setupGeom resolves one geometry (DRAM subsystem, memoized thermal
//     plan, embodied carbon) and evalCell walks its voltage columns,
//     identically wherever it runs, into rows: each feasible
//     configuration's per-voltage server.Row with its TCO and carbon,
//     pointing at its geometry's server.Record, one per geometry and
//     allocated once per chunk;
//   - evalChunk evaluates chunk c = work[c*size : (c+1)*size] of the
//     plan's partition into a sweepAcc, the one fold accumulator.
//     ExploreContext's workers each fold their chunks into their own
//     accumulator and merge them once at the end; EvaluateChunk folds
//     one chunk into a fresh accumulator and ships it as a ChunkResult;
//     ResultMerger splits ChunkResults back into rows and folds them
//     into an accumulator. All of them finish through sweepAcc.finish.
//
// Rows are evaluated, priced, folded, compared and, in keep mode,
// retained as Result.Points; full Points exist only at the edges: the
// frontiers a Result or ChunkResult reports, which hold the optima.
//
// Because pareto.Fold merge is associative and order-independent, the
// finished Result is byte-identical regardless of worker count, which
// worker or process evaluated which chunk, how chunks were requeued, or
// arrival order.

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
	cfg, err := grid.config(g)
	if err != nil {
		return s, PruneDRAM
	}
	s.cfg = cfg
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

// config is geometry g's configuration: the grid's base with g's RCAs
// and chips per lane and a DRAM subsystem of g's device count (none for
// zero). The error is the DRAM catalog's, for a count it cannot build.
func (grid *sweepGrid) config(g geom) (server.Config, error) {
	cfg := grid.base
	cfg.RCAsPerChip = g.rcasPerChip
	cfg.ChipsPerLane = g.chipsLane
	cfg.DRAM = dram.Subsystem{}
	if g.dramPerASIC > 0 {
		sub, err := dram.NewSubsystem(grid.base.DRAM.Device.Kind, g.dramPerASIC)
		if err != nil {
			return cfg, err
		}
		cfg.DRAM = sub
	}
	return cfg, nil
}

// evalCell evaluates one deduplicated geometry cell: setupGeom, then the
// per-voltage column walk (evalGeometry). Feasible rows, which share
// *rec, are appended to scratch; every candidate the cell generates is
// accounted in sum. The returned slices are the (possibly grown)
// scratch buffers.
func (e *Engine) evalCell(g geom, grid *sweepGrid, rec *server.Record, scratch []Row, column []server.Row,
	sum *PruneSummary, ctr *exploreCounters) ([]Row, []server.Row) {

	sum.Generated += grid.perGeom
	ctr.configs.Add(grid.perGeom)
	s, reason := e.setupGeom(g, grid)
	switch reason {
	case PruneDRAM:
		ctr.dramErr.Add(grid.perGeom)
	case PruneThermal:
		ctr.thermal.Add(grid.perGeom)
	default:
		return e.evalGeometry(&s, grid, rec, scratch, column, sum, ctr)
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
// chunkSize <= 0 selects DistributedChunkSize, since a plan is what a
// distributed coordinator enumerates (ExploreContext partitions by
// Engine.ChunkSize instead). The "empty design space" failure mode is
// reported here, exactly as ExploreContext reports it.
func PlanSweep(sweep Sweep, model tco.Model, chunkSize int) (*SweepPlan, error) {
	grid, err := buildGrid(sweep, model)
	if err != nil {
		return nil, err
	}
	if len(grid.work) == 0 {
		return nil, emptySpaceError(grid.summary)
	}
	if chunkSize <= 0 {
		chunkSize = DistributedChunkSize
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

// NumChunks is how many chunks the work list partitions into. The
// ceiling division cannot overflow, whatever the chunk size.
func (p *SweepPlan) NumChunks() int {
	n := len(p.grid.work) / p.chunkSize
	if len(p.grid.work)%p.chunkSize != 0 {
		n++
	}
	return n
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
// Pareto fold survivors and the chunk's exact per-geometry prune
// accounting. It is the payload a distributed worker returns; its JSON
// form is the records-plus-rows one MarshalJSON and UnmarshalJSON
// define (see chunkwire.go), and float64 values survive it exactly
// (records as encoding/json's shortest round-tripping decimals, rows as
// their IEEE 754 bits).
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
	// EnergyOptimal, CostOptimal, TCOOptimal and CarbonOptimal are
	// ignored: EvaluateChunk leaves them nil, the wire form does not
	// carry them, and ResultMerger reads the optima off the merged
	// frontiers instead. They remain only because the benchmark's
	// replay (_perfbench) still assigns them.
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
// and (TCO, CO2e) Pareto folds and the prune accounting, all over rows.
// The two folds hold the four optima too (see finish). Memory is
// O(frontier), however many rows flow through. An accumulator is not
// safe for concurrent use: each sweep worker owns one, and they are
// merged once the workers are done.
type sweepAcc struct {
	fold, cfold *pareto.Fold[Row]
	summary     PruneSummary
}

// newSweepAcc returns an empty accumulator seeded with summary.
func newSweepAcc(summary PruneSummary) sweepAcc {
	return sweepAcc{
		fold:    pareto.NewFold(rowDollars, rowWatts),
		cfold:   pareto.NewFold(rowTCO, rowCO2),
		summary: summary,
	}
}

// add folds one feasible row into both folds; its feasible count is
// accounted where it is evaluated. The sweep calls add once per
// feasible configuration, so no fold copies the row unless it survives.
//
//asic:hotpath
func (a *sweepAcc) add(r *Row) {
	a.fold.AddAt(r.DollarsPerOp, r.WattsPerOp, r)
	a.cfold.AddAt(r.TCO.Total(), r.Carbon.Total(), r)
}

// merge folds o's survivors and accounting into a.
func (a *sweepAcc) merge(o *sweepAcc) {
	a.fold.Merge(o.fold)
	a.cfold.Merge(o.cfold)
	a.summary.merge(o.summary)
}

// chunkResult is the accumulator's wire form for chunk c of n.
func (a *sweepAcc) chunkResult(c, n int) ChunkResult {
	return ChunkResult{
		Chunk:          c,
		NumChunks:      n,
		Frontier:       points(a.fold.Points()),
		CarbonFrontier: points(a.cfold.Points()),
		Pruned:         a.summary,
	}
}

// points builds the Point of each row; no rows give nil.
func points(rows []Row) []Point {
	if len(rows) == 0 {
		return nil
	}
	out := make([]Point, len(rows))
	for i := range rows {
		out[i] = rows[i].Point()
	}
	return out
}

// addChunk folds a chunk's wire form in, the inverse of chunkResult:
// merging the ChunkResult of accumulator o is merging o. Each frontier
// Point is split into a row once; the rows of one geometry share one
// record. The chunk's optimum fields are not read.
func (a *sweepAcc) addChunk(cr ChunkResult) {
	var recs chunkRecords
	for i := range cr.Frontier {
		r := recs.split(&cr.Frontier[i])
		a.fold.AddAt(r.DollarsPerOp, r.WattsPerOp, &r)
	}
	for i := range cr.CarbonFrontier {
		r := recs.split(&cr.CarbonFrontier[i])
		a.cfold.AddAt(r.TCO.Total(), r.Carbon.Total(), &r)
	}
	a.summary.merge(cr.Pruned)
}

// chunkRecords holds the distinct geometry records of one incoming
// chunk, so the rows split from its Points share one record per
// geometry.
type chunkRecords []*server.Record

// split turns p into a row whose record is the chunk's one record for
// p's geometry; only a geometry's first Point allocates its record.
func (rs *chunkRecords) split(p *Point) Row {
	rec, r := server.Split(&p.Evaluation)
	out := Row{Row: r, TCO: p.TCO, Carbon: p.Carbon}
	g := geomOf(&rec.Config)
	for _, have := range *rs {
		if geomOf(&have.Config) == g && *have == rec {
			out.Record = have
			return out
		}
	}
	out.Record = new(server.Record)
	*out.Record = rec
	*rs = append(*rs, out.Record)
	return out
}

// finish turns the accumulator into the reported Result; it is the
// only place a Result's frontiers and optima are made. Each fold's
// survivor set is order-independent; sorting it by lessRow and
// re-running Frontier applies the same duplicate tie-breaking a
// frontier pass over every sorted point would, so both the (dollars,
// watts) frontier and the (TCO, CO2e) frontier are byte-identical
// however the rows were folded and merged. The optima are read off the
// frontiers, under the tie rule Result documents. Pruned is populated
// even on the no-feasible-point error.
//
//asic:canonical
func (a *sweepAcc) finish() (Result, error) {
	res := Result{Pruned: a.summary}
	if a.summary.Feasible == 0 {
		return res, fmt.Errorf(
			"core: no feasible design point in the swept space (%s)", a.summary)
	}
	res.Frontier = frontier(a.fold, rowDollars, rowWatts)
	res.CarbonFrontier = frontier(a.cfold, rowTCO, rowCO2)
	if n := len(res.Frontier); n > 0 {
		res.CostOptimal, res.EnergyOptimal = res.Frontier[0], res.Frontier[n-1]
	}
	if i := pareto.ArgMin(res.Frontier, Point.TCOPerOp); i >= 0 {
		res.TCOOptimal = res.Frontier[i]
	}
	if n := len(res.CarbonFrontier); n > 0 {
		res.CarbonOptimal = res.CarbonFrontier[n-1]
	}
	return res, nil
}

// frontier is the Pareto frontier of f's survivors under (x, y) in
// lessRow order, as Points.
func frontier(f *pareto.Fold[Row], x, y func(Row) float64) []Point {
	surv := f.Points()
	sort.Slice(surv, func(i, j int) bool { return lessRow(&surv[i], &surv[j]) })
	idx := pareto.Frontier(surv, x, y)
	out := make([]Point, len(idx))
	for k, i := range idx {
		out[k] = surv[i].Point()
	}
	return out
}

// chunkWorker is one evaluator's state, reused across the chunks it
// runs: the accumulator its rows fold into, the sweep's counters, and
// the row and column scratch buffers. The buffers stop growing once
// they have seen the largest geometry (the largest chunk when points
// are kept), so a steady-state sweep does not allocate per
// configuration, only one geometry-record block per chunk (see
// BenchmarkRepeatedSweep with -benchmem).
type chunkWorker struct {
	acc    sweepAcc
	ctr    *exploreCounters
	rows   []Row
	column []server.Row
}

// evalChunk is the sweep's one chunk evaluator: it evaluates chunk c of
// the plan's partition and folds every feasible row into w.acc. It
// checks ctx between geometries and returns ctx's error on an early
// stop, with every geometry it did evaluate exactly accounted in
// w.acc. claimed, when non-nil, runs as each geometry starts. The
// chunk's geometry records are allocated once, together, because the
// folded survivors keep pointing at them after the chunk. With keep set
// the chunk's rows are also returned, in evaluation order, as an
// exact-size copy; otherwise the row scratch is reset per geometry.
func (e *Engine) evalChunk(ctx context.Context, plan *SweepPlan, c int, w *chunkWorker,
	keep bool, claimed func()) ([]Row, error) {

	lo := c * plan.chunkSize
	hi := min(lo+plan.chunkSize, len(plan.grid.work))
	recs := make([]server.Record, hi-lo)
	w.rows = w.rows[:0]
	for i, g := range plan.grid.work[lo:hi] {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if claimed != nil {
			claimed()
		}
		if !keep {
			w.rows = w.rows[:0]
		}
		n := len(w.rows)
		w.rows, w.column = e.evalCell(g, plan.grid, &recs[i], w.rows, w.column, &w.acc.summary, w.ctr)
		for j := n; j < len(w.rows); j++ {
			w.acc.add(&w.rows[j])
		}
	}
	if !keep {
		return nil, nil
	}
	rows := make([]Row, len(w.rows))
	copy(rows, w.rows)
	return rows, nil
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
