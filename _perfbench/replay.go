package main

import (
	"fmt"
	"math"

	"asiccloud/internal/carbon"
	"asiccloud/internal/core"
	"asiccloud/internal/dram"
	"asiccloud/internal/pareto"
	"asiccloud/internal/server"
	"asiccloud/internal/tco"
	"asiccloud/internal/thermal"
)

// The replay re-runs a sweep through the layers' public functions —
// core.PlanSweep → server.ThermalPlan → server.EvaluateColumn →
// tco.Model.Of / carbon.Model.Of → pareto.Fold.Add → core.ResultMerger —
// on one goroutine, with a benchmark span around each call. Those
// layers are only reachable inside Engine.ExploreContext or the daemon,
// and this change adds no instrumentation to the program, so the replay
// is how their self times are taken. The per-configuration calls
// (Model.Of, Fold.Add) are timed one voltage column at a time: a clock
// read costs about as much as one call. The replayed Result must equal
// the workload's reference, which shows the replay did the same work.

// planKey mirrors the engine's thermal-plan cache key, so the replay
// sees the same cache state the workload does.
type planKey struct {
	rcasPerChip  int
	chipsPerLane int
	dramKind     dram.Kind
	dramPerASIC  int
	inputs       server.PlanInputs
}

type planEntry struct {
	plan thermal.OptimizeResult
	err  error
}

type replayGeom struct{ rcas, chips, dram int }

type replayer struct {
	tr    *tracer
	plans map[planKey]planEntry

	sweeps       int
	thermalPlans int
	columns      int
	survivors    int64
}

func newReplayer(tr *tracer) *replayer {
	return &replayer{tr: tr, plans: make(map[planKey]planEntry)}
}

// sweep replays one sweep as chunks of chunkSize geometries merged by
// a core.ResultMerger, the partition a distributed sweep uses.
func (r *replayer) sweep(req int, sw core.Sweep, model tco.Model, chunkSize int) (core.Result, error) {
	root := r.tr.begin(req, -1, "replay")
	defer r.tr.end(root)
	r.sweeps++

	id := r.tr.begin(req, root, "core.grid_build")
	plan, err := core.PlanSweep(sw, model, chunkSize)
	r.tr.end(id)
	if err != nil {
		return core.Result{}, err
	}
	g, err := replayGrid(sw)
	if err != nil {
		return core.Result{}, err
	}
	if len(g.work) != plan.Geometries() {
		return core.Result{}, fmt.Errorf("replay: %d geometries, core.PlanSweep has %d", len(g.work), plan.Geometries())
	}
	merger := core.NewResultMerger(plan)
	for c := 0; c < plan.NumChunks(); c++ {
		lo := c * plan.ChunkSize()
		hi := min(lo+plan.ChunkSize(), len(g.work))
		cr := r.chunk(req, root, sw.Base, model, g, g.work[lo:hi])
		cr.Chunk, cr.NumChunks = c, plan.NumChunks()
		id := r.tr.begin(req, root, "core.merge")
		merger.Add(cr)
		r.tr.end(id)
	}
	id = r.tr.begin(req, root, "core.finish")
	res, err := merger.Finish()
	r.tr.end(id)
	return res, err
}

type grid struct {
	voltages []float64
	stacked  []bool
	carbon   carbon.Model
	perGeom  int64
	work     []replayGeom
}

// replayGrid resolves the sweep's geometry work list in the order
// core's grid build does (silicon outer, chips, then DRAM count),
// de-duplicating cells that quantize to the same geometry.
func replayGrid(sw core.Sweep) (grid, error) {
	g := grid{carbon: carbon.Default(), stacked: []bool{false}}
	if sw.Carbon != nil {
		g.carbon = *sw.Carbon
	}
	if len(sw.Voltages) > 0 {
		var err error
		if g.voltages, err = core.NormalizeVoltages(sw.Voltages); err != nil {
			return grid{}, err
		}
	} else {
		g.voltages = core.VoltageGrid(sw.Base.RCA.MinVoltage(), sw.Base.RCA.MaxVoltage())
	}
	if sw.Stacked {
		g.stacked = append(g.stacked, true)
	}
	g.perGeom = int64(len(g.stacked)) * int64(len(g.voltages))
	silicon := sw.SiliconPerLane
	if len(silicon) == 0 {
		silicon = core.DefaultSiliconPerLane()
	}
	chips := sw.ChipsPerLane
	if len(chips) == 0 {
		chips = core.DefaultChipsPerLane()
	}
	drams := sw.DRAMPerASIC
	if len(drams) == 0 {
		drams = []int{0}
	}
	seen := make(map[replayGeom]bool)
	for _, sil := range silicon {
		for _, n := range chips {
			rcas := int(math.Round(sil / float64(n) / sw.Base.RCA.Area))
			if rcas < 1 {
				continue
			}
			for _, d := range drams {
				cell := replayGeom{rcas: rcas, chips: n, dram: d}
				if !seen[cell] {
					seen[cell] = true
					g.work = append(g.work, cell)
				}
			}
		}
	}
	return g, nil
}

// chunk evaluates one chunk's geometries and folds them into the
// ChunkResult a worker would return.
func (r *replayer) chunk(req, parent int, base server.Config, model tco.Model, g grid, work []replayGeom) core.ChunkResult {
	var (
		sum                        core.PruneSummary
		col                        []server.Evaluation
		tcos                       []tco.Breakdown
		co2                        []carbon.Breakdown
		pts                        []core.Point
		energy, cost, tcoOpt, cOpt optAcc
	)
	prune := func(reason string, n int64) {
		if n <= 0 {
			return
		}
		if sum.Reasons == nil {
			sum.Reasons = make(map[string]int64)
		}
		sum.Reasons[reason] += n
	}
	fold := pareto.NewFold(func(p core.Point) float64 { return p.DollarsPerOp },
		func(p core.Point) float64 { return p.WattsPerOp })
	cfold := pareto.NewFold(core.Point.TCOPerOp, core.Point.CO2PerOp)
	for _, geo := range work {
		sum.Generated += g.perGeom
		cfg := base
		cfg.RCAsPerChip, cfg.ChipsPerLane = geo.rcas, geo.chips
		if geo.dram > 0 {
			sub, err := dram.NewSubsystem(cfg.DRAM.Device.Kind, geo.dram)
			if err != nil {
				prune(core.PruneDRAM, g.perGeom)
				continue
			}
			cfg.DRAM = sub
		} else {
			cfg.DRAM = dram.Subsystem{}
		}
		plan, err := r.thermalPlan(req, parent, cfg)
		if err != nil {
			prune(core.PruneThermal, g.perGeom)
			continue
		}
		id := r.tr.begin(req, parent, "carbon.price")
		embodied := g.carbon.EmbodiedServerKg(cfg.Process, cfg.DieArea(), cfg.ChipsPerLane*cfg.Lanes)
		r.tr.end(id)
		pts = pts[:0]
		for _, st := range g.stacked {
			cfg.Stacked = st
			id := r.tr.begin(req, parent, "server.evaluate_column")
			var thermalPruned, evalPruned int
			col, thermalPruned, evalPruned = server.EvaluateColumn(cfg, plan, g.voltages, col[:0])
			r.tr.end(id)
			r.columns++
			prune(core.PruneThermal, int64(thermalPruned))
			prune(core.PruneEval, int64(evalPruned))

			tcos, co2 = tcos[:0], co2[:0]
			id = r.tr.begin(req, parent, "tco.price")
			for _, ev := range col {
				tcos = append(tcos, model.Of(ev.DollarsPerOp, ev.WattsPerOp))
			}
			r.tr.end(id)
			id = r.tr.begin(req, parent, "carbon.price")
			for _, ev := range col {
				co2 = append(co2, g.carbon.Of(embodied, ev.Perf, ev.WallPower))
			}
			r.tr.end(id)
			for i, ev := range col {
				pts = append(pts, core.Point{Evaluation: ev, TCO: tcos[i], Carbon: co2[i]})
			}
			sum.Feasible += int64(len(col))
		}
		id = r.tr.begin(req, parent, "pareto.fold")
		for _, p := range pts {
			fold.Add(p)
			cfold.Add(p)
			energy.add(p.WattsPerOp, p)
			cost.add(p.DollarsPerOp, p)
			tcoOpt.add(p.TCOPerOp(), p)
			cOpt.add(p.CO2PerOp(), p)
		}
		r.tr.end(id)
	}
	cr := core.ChunkResult{Frontier: fold.Points(), CarbonFrontier: cfold.Points(), Pruned: sum}
	r.survivors += int64(len(cr.Frontier) + len(cr.CarbonFrontier))
	cr.EnergyOptimal, cr.CostOptimal, cr.TCOOptimal, cr.CarbonOptimal =
		energy.ptr(), cost.ptr(), tcoOpt.ptr(), cOpt.ptr()
	return cr
}

// thermalPlan memoizes server.ThermalPlan per geometry like the
// engine's plan cache; only a miss is a call into the thermal layer.
func (r *replayer) thermalPlan(req, parent int, cfg server.Config) (thermal.OptimizeResult, error) {
	key := planKey{cfg.RCAsPerChip, cfg.ChipsPerLane, cfg.DRAM.Device.Kind, cfg.DRAM.PerASIC, cfg.PlanInputs()}
	if e, ok := r.plans[key]; ok {
		return e.plan, e.err
	}
	id := r.tr.begin(req, parent, "server.thermal_plan")
	plan, err := server.ThermalPlan(cfg)
	r.tr.end(id)
	r.thermalPlans++
	r.plans[key] = planEntry{plan, err}
	return plan, err
}

// replayLayers turns the replay's spans into per-layer metrics (mean
// seconds per replayed sweep) and budget rows inside the given
// blocking row. fold says whether the workload's path folds points
// through pareto.Fold as the replay does.
func replayLayers(rep *report, tr *tracer, rp *replayer, inside string, fold bool) {
	self := tr.selfTimes()
	n := float64(rp.sweeps)
	per := func(name string) float64 { return self[name].Seconds() / n }
	L := rep.layers
	L["server.thermal_plan_s"] = per("server.thermal_plan")
	L["server.thermal_plans"] = float64(rp.thermalPlans) / n
	L["server.evaluate_column_s"] = per("server.evaluate_column")
	L["server.columns"] = float64(rp.columns) / n
	L["tco.price_s"] = per("tco.price")
	L["carbon.price_s"] = per("carbon.price")
	rows := []string{"server.thermal_plan", "server.evaluate_column", "tco.price", "carbon.price"}
	if fold {
		L["pareto.fold_s"] = per("pareto.fold")
		L["pareto.fold_survivors"] = float64(rp.survivors) / n
		rows = append(rows, "pareto.fold")
	}
	rep.replayWall = tr.total("replay").Seconds() / n
	where := "replay, one goroutine, of " + inside
	for _, name := range rows {
		rep.budget = append(rep.budget, budgetRow{layer: name, seconds: per(name), inside: where})
	}
}

// optAcc is a running argmin with core's deterministic tie-break, so a
// chunk offers the merger the same optimum candidate a worker would.
type optAcc struct {
	ok bool
	v  float64
	p  core.Point
}

func (a *optAcc) add(v float64, p core.Point) {
	if math.IsNaN(v) {
		return
	}
	if !a.ok || v < a.v || (v == a.v && lessPoint(p, a.p)) {
		a.ok, a.v, a.p = true, v, p
	}
}

func (a *optAcc) ptr() *core.Point {
	if !a.ok {
		return nil
	}
	p := a.p
	return &p
}

// lessPoint is core's result order: $ per op/s, W per op/s, then the
// configuration coordinates.
func lessPoint(a, b core.Point) bool {
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
