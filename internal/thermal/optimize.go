package thermal

import "asiccloud/internal/units"

// OptimizeOptions bound the heat sink search.
type OptimizeOptions struct {
	LaneWidth float64 // available width per lane (m); caps sink width
	LaneLen   float64 // usable lane depth (m)
	ExtraRow  float64 // lane depth reserved for non-ASIC parts (m)
	Layout    Layout
	InletC    float64 // inlet air temperature (°C)
	MaxTjC    float64 // maximum junction temperature (°C)
}

// DefaultOptimizeOptions is the paper's 8-lane 1U server: a 19-inch
// chassis gives each lane roughly 46 mm of width.
func DefaultOptimizeOptions() OptimizeOptions {
	return OptimizeOptions{
		LaneWidth: 0.046,
		LaneLen:   DefaultLaneLength,
		Layout:    LayoutDuct,
		InletC:    30,
		MaxTjC:    90,
	}
}

// OptimizeResult is the best sink configuration found for a lane.
type OptimizeResult struct {
	Sink         HeatSink
	Lane         Lane
	ChipPower    float64 // max W per chip
	LanePower    float64 // max W for the lane
	SinkFlow     float64 // m³/s through the sinks
	ResistanceKW float64 // junction-to-local-air K/W at the operating flow
}

// OptimizeSink searches heat sink depth and fin pitch to maximize the
// power a lane of `chips` dies of dieAreaMM2 each can dissipate —
// "Iterative trials find the best heat sink configuration, optimizing
// heat sink dimensions, material and fin topology." As chips per lane
// grow, the optimum moves to shallower sinks to keep airflow up.
//
// The search is two halves split at the die: NewSinkCandidates walks
// the (depth, fin gap) grid, solves each buildable sink's airflow and
// computes every other scoring term no die property or spreader enters,
// and SinkCandidates.Best scores those sinks with either spreader at
// this die area. A caller that plans many dies in one lane shape builds
// the candidates once and calls Best per die. Either way the answer is,
// bit for bit, that of building, validating and scoring every (depth,
// gap, spreader) candidate on its own, walking every chip's junction
// coefficient.
//
// OptimizeSink is a pure function of its arguments and the package's
// material/geometry constants, and OptimizeResult is a plain value with
// no pointers or slices, so results are safe to memoize and share
// across goroutines — server.PlanInputs defines the cache key the
// exploration engine uses for exactly that.
func OptimizeSink(fan Fan, chips int, dieAreaMM2 float64, opt OptimizeOptions) (OptimizeResult, bool) {
	return NewSinkCandidates(fan, chips, opt).Best(dieAreaMM2)
}

// SinkCandidates is the die-independent half of OptimizeSink's search:
// every buildable sink of its 30-point (depth, fin gap) grid that fits
// the lane, in search order, with every scoring term that reads neither
// the die nor the spreader material: the through-sink flow Lane.Airflow
// solves for it, its fin-to-air resistance at that flow (plain and
// derated for the layout's worst-placed chip), the last chip's air
// terms, and its footprint. One set serves every die area planned in
// the lane shape; Best scores it at one. A set is immutable once built
// and safe to share across goroutines — server.AirInputs is the key the
// exploration engine memoizes it by.
type SinkCandidates struct {
	fan   Fan
	chips int
	opt   OptimizeOptions
	width float64 // sink width (m)
	sinks []sinkCandidate
}

// sinkCandidate is one buildable sink of the search grid.
type sinkCandidate struct {
	depth, gap float64 // m
	flow       float64 // through-sink flow (m³/s)
	conv       float64 // fin-to-air resistance at flow (K/W)
	convWorst  float64 // conv derated by the layout's uniformity (K/W)
	lastAir    float64 // the last chip's air terms at flow (K/W), lastChipAir
	baseM2     float64 // spreader footprint (m²)
	r2         float64 // radius of the footprint's equivalent disc (m)
}

// NewSinkCandidates runs the air side of the sink search for a lane of
// chips under opt: it keeps each (depth, fin gap) sink that is
// buildable and fits the lane, solves the lane's airflow once for it,
// and computes the scoring terms Best needs that no die enters. An
// impossible lane (no chips, or sinks too shallow to build) yields an
// empty set, which Best reports as not found.
func NewSinkCandidates(fan Fan, chips int, opt OptimizeOptions) *SinkCandidates {
	width := opt.LaneWidth
	if width > MaxSinkWidth {
		width = MaxSinkWidth
	}
	c := &SinkCandidates{fan: fan, chips: chips, opt: opt, width: width}
	if chips <= 0 {
		return c
	}
	maxDepth := (opt.LaneLen - opt.ExtraRow) / float64(chips)
	if maxDepth > MaxSinkDepth {
		maxDepth = MaxSinkDepth
	}
	if maxDepth < 0.004 {
		return c // chips don't physically fit
	}
	uniformity := opt.Layout.params().uniformity
	// Depth candidates from very shallow to the per-chip budget; gap
	// candidates from the 1 mm minimum up ("generally, the densest
	// packed fins are preferable", but wide gaps win when pressure is
	// scarce).
	fracs := [...]float64{0.25, 0.4, 0.55, 0.7, 0.85, 1.0}
	gaps := [...]float64{0.001, 0.0015, 0.002, 0.003, 0.004}
	c.sinks = make([]sinkCandidate, 0, len(fracs)*len(gaps))
	for _, frac := range fracs {
		depth := maxDepth * frac
		if depth < 0.004 {
			continue
		}
		for _, gap := range gaps {
			sink := c.sink(depth, gap, Material{})
			if sink.Validate() != nil {
				continue
			}
			// Neither the flow network nor the geometry checks read the
			// die or a material, so one solve serves every die and
			// spreader Best tries.
			lane := c.lane(sink, 0)
			if lane.validateAir() != nil {
				continue
			}
			q, _ := lane.Airflow()
			conv := sink.convection(q)
			baseM2 := sink.Width * sink.Depth
			c.sinks = append(c.sinks, sinkCandidate{
				depth:     depth,
				gap:       gap,
				flow:      q,
				conv:      conv,
				convWorst: conv / uniformity,
				lastAir:   lastChipAir(chips, q),
				baseM2:    baseM2,
				r2:        radius(baseM2),
			})
		}
	}
	return c
}

// sink is the search's heat sink at depth and fin gap (m) with the
// given spreader.
func (c *SinkCandidates) sink(depth, gap float64, base Material) HeatSink {
	return HeatSink{
		Width:         c.width,
		FinHeight:     MaxSinkHeight - StdBase,
		Depth:         depth,
		BaseThickness: StdBase,
		FinThickness:  StdFin,
		Gap:           gap,
		FinMaterial:   Aluminum,
		BaseMaterial:  base,
		TIM:           DefaultTIM(),
	}
}

// lane is the candidate lane around sink for dies of dieAreaMM2.
func (c *SinkCandidates) lane(sink HeatSink, dieAreaMM2 float64) Lane {
	return Lane{
		Fan:      c.fan,
		Sink:     sink,
		Chips:    c.chips,
		DieArea:  dieAreaMM2,
		Layout:   c.opt.Layout,
		InletC:   c.opt.InletC,
		MaxTjC:   c.opt.MaxTjC,
		LaneLen:  c.opt.LaneLen,
		ExtraRow: c.opt.ExtraRow,
	}
}

// Best scores every candidate with each spreader at a die of dieAreaMM2
// (mm²) and returns the sink that sustains the most power per chip, the
// first in search order on exact ties; ok is false when no sink fits
// the lane or the die area is not positive. Per candidate it adds what
// the die enters — the TIM and spreading terms, whose material-free
// part it computes once for both spreaders — to the set's air-side
// terms, and reads the limit off the last chip's coefficient
// (worstCoeff). A candidate whose limit without any spreading
// resistance is already below the best found so far cannot win and is
// skipped. Nothing is allocated, so planning one more die in a known
// lane shape costs a few flops per candidate.
func (c *SinkCandidates) Best(dieAreaMM2 float64) (OptimizeResult, bool) {
	if dieAreaMM2 <= 0 || len(c.sinks) == 0 {
		return OptimizeResult{}, false
	}
	rTIM := DefaultTIM().Resistance(dieAreaMM2)
	headroom := c.opt.MaxTjC - c.opt.InletC
	dieM2 := units.MM2ToM2(dieAreaMM2)
	r1 := radius(dieM2)
	var (
		best         *sinkCandidate
		bestBase     Material
		bestP, bestS float64
	)
	for i := range c.sinks {
		cand := &c.sinks[i]
		// Spreading resistance is never negative and rounded addition
		// and division are monotone, so the limit with it set to zero
		// bounds both spreaders' limits from above (the headroom is
		// positive: validateAir kept only lanes with MaxTjC > InletC).
		// A bound below the best so far means neither spreader can pass
		// the strict > that picks the winner. A NaN bound compares
		// false, and the candidate is scored.
		if best != nil && chipPowerLimit(headroom, worstCoeff(cand.lastAir, rTIM+cand.convWorst)) < bestP {
			continue
		}
		spread := constriction(dieM2, r1, cand.baseM2, cand.r2)
		// Table 2 allows an aluminum or copper heat spreader; the search
		// tries both (copper spreads better, aluminum is cheaper —
		// thermals decide here, and exact ties keep copper for its
		// better worst-chip margin).
		for _, base := range [...]Material{Copper, Aluminum} {
			s := spread.resistance(base.Conductivity, StdBase)
			p := chipPowerLimit(headroom, worstCoeff(cand.lastAir, rTIM+s+cand.convWorst))
			if best == nil || p > bestP {
				best, bestBase, bestP, bestS = cand, base, p, s
			}
		}
	}
	sink := c.sink(best.depth, best.gap, bestBase)
	return OptimizeResult{
		Sink:         sink,
		Lane:         c.lane(sink, dieAreaMM2),
		ChipPower:    bestP,
		LanePower:    bestP * float64(c.chips),
		SinkFlow:     best.flow,
		ResistanceKW: rTIM + bestS + best.conv,
	}, true
}
