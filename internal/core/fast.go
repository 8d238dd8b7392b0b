package core

import (
	"errors"
	"math"

	"asiccloud/internal/server"
	"asiccloud/internal/tco"
)

// coarseStepV is the minimum spacing (V) of the fast path's first-pass
// voltage subset. On the paper's dense 0.01 V grid the subset is the
// classic every-fifth-point coarse grid.
const coarseStepV = 0.05

// FindTCOOptimal is the package-level fast path over a fresh Engine;
// see Engine.FindTCOOptimal. Callers that also Explore should share one
// Engine so both paths reuse the same thermal-plan cache.
func FindTCOOptimal(sweep Sweep, model tco.Model) (Point, error) {
	return NewEngine(nil).FindTCOOptimal(sweep, model)
}

// FindCarbonOptimal is the package-level fast path over a fresh Engine;
// see Engine.FindCarbonOptimal.
func FindCarbonOptimal(sweep Sweep, model tco.Model) (Point, error) {
	return NewEngine(nil).FindCarbonOptimal(sweep, model)
}

// coarseIndices selects an ascending index subset of vs spaced at least
// step volts apart, always starting at the first entry. vs must be
// sorted ascending.
func coarseIndices(vs []float64, step float64) []int {
	idx := []int{0}
	last := vs[0]
	for i := 1; i < len(vs); i++ {
		// The tolerance keeps 0.01-V-in-hundredths grids from skipping a
		// coarse point to representation error.
		if vs[i] >= last+step-1e-9 {
			idx = append(idx, i)
			last = vs[i]
		}
	}
	return idx
}

// FindTCOOptimal locates the TCO-optimal design without sweeping every
// voltage: per geometry and stacking option it evaluates a coarse
// subset of the voltage grid spaced at least 0.05 V apart, then refines
// over the grid points strictly between the coarse neighbors of the
// winner. TCO is smooth and single-troughed in voltage for a fixed
// geometry (costs fall and watts rise monotonically), so the refinement
// finds the same optimum as the brute force roughly five times faster —
// useful inside sensitivity studies and interactive tools. Tests assert
// that the result equals Explore's TCOOptimal.
//
// The fast path resolves the sweep exactly as Explore does: the same
// grid build (the sorted, de-duplicated voltage set with its range
// check, the defaults, the deduplicated geometry work list and the
// stacking options) and the same per-geometry setup (DRAM subsystem,
// memoized thermal plan, embodied carbon). Both passes draw only from
// the caller's voltage set, so the reported optimum always operates at
// one of the supplied voltages; an empty set selects the paper's dense
// grid, where the subset/refine split reproduces the classic 0.05 V
// coarse pass with ±0.04 V refinement exactly. Thermal plans come from
// the engine's geometry cache, so a fast-path call after an Explore of
// the same space does no heat-sink optimization at all.
func (e *Engine) FindTCOOptimal(sweep Sweep, model tco.Model) (Point, error) {
	return e.findOptimal(sweep, model, Point.TCOPerOp)
}

// FindCarbonOptimal locates the CO2e-optimal design with the same
// coarse-then-refine voltage pass FindTCOOptimal uses. The carbon
// objective shares TCO's trough shape in voltage for a fixed geometry:
// dropping voltage cuts watts (the operational term falls) but also
// cuts frequency and therefore throughput, so the fixed embodied
// emission is amortized over fewer op/s and its per-op share rises —
// one falling term plus one rising term, single-troughed. Tests assert
// that the result equals Explore's CarbonOptimal.
func (e *Engine) FindCarbonOptimal(sweep Sweep, model tco.Model) (Point, error) {
	return e.findOptimal(sweep, model, Point.CO2PerOp)
}

// findOptimal is the shared coarse+refine scan over the sweep's grid:
// it prices every point it evaluates exactly as the sweep does and
// keeps the minimum under the sweep's tie-break, so the winner equals
// the corresponding Explore optimum.
func (e *Engine) findOptimal(sweep Sweep, model tco.Model, objective func(Point) float64) (Point, error) {
	grid, err := buildGrid(sweep, model)
	if err != nil {
		return Point{}, err
	}
	voltages := grid.voltages
	ci := coarseIndices(voltages, coarseStepV)
	var best optAcc
	consider := func(s *geomSetup, v float64) float64 {
		cfg := s.cfg
		cfg.Voltage = v
		ev, err := server.EvaluateWithPlan(cfg, s.plan)
		if err != nil {
			return math.Inf(1)
		}
		p := Point{
			Evaluation: ev,
			TCO:        model.Of(ev.DollarsPerOp, ev.WattsPerOp),
			Carbon:     grid.carbon.Of(s.embodiedKg, ev.Perf, ev.WallPower),
		}
		obj := objective(p)
		best.add(obj, &p)
		return obj
	}
	for _, g := range grid.work {
		s, reason := e.setupGeom(g, grid)
		if reason != "" {
			continue
		}
		for _, stacked := range grid.stackedOptions {
			s.cfg.Stacked = stacked
			// Coarse pass over the spaced subset.
			bestK, bestT := -1, math.Inf(1)
			for k, i := range ci {
				if t := consider(&s, voltages[i]); t < bestT {
					bestT, bestK = t, k
				}
			}
			if bestK < 0 {
				continue
			}
			// Refine over the grid points strictly between the coarse
			// neighbors of the winner — the only region where a better
			// trough point can hide, given unimodality.
			lo := 0
			if bestK > 0 {
				lo = ci[bestK-1] + 1
			}
			hi := len(voltages) - 1
			if bestK < len(ci)-1 {
				hi = ci[bestK+1] - 1
			}
			for i := lo; i <= hi; i++ {
				consider(&s, voltages[i])
			}
		}
	}
	if !best.ok {
		return Point{}, errors.New("core: no feasible design point in the swept space")
	}
	return best.p, nil
}
