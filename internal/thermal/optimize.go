package thermal

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
// OptimizeSink is a pure function of its arguments and the package's
// material/geometry constants, and OptimizeResult is a plain value with
// no pointers or slices, so results are safe to memoize and share
// across goroutines — server.PlanInputs defines the cache key the
// exploration engine uses for exactly that.
func OptimizeSink(fan Fan, chips int, dieAreaMM2 float64, opt OptimizeOptions) (OptimizeResult, bool) {
	if chips <= 0 || dieAreaMM2 <= 0 {
		return OptimizeResult{}, false
	}
	width := opt.LaneWidth
	if width > MaxSinkWidth {
		width = MaxSinkWidth
	}
	maxDepth := (opt.LaneLen - opt.ExtraRow) / float64(chips)
	if maxDepth > MaxSinkDepth {
		maxDepth = MaxSinkDepth
	}
	if maxDepth < 0.004 {
		return OptimizeResult{}, false // chips don't physically fit
	}

	var best OptimizeResult
	found := false
	// Depth candidates from very shallow to the per-chip budget; gap
	// candidates from the 1 mm minimum up ("generally, the densest
	// packed fins are preferable", but wide gaps win when pressure is
	// scarce).
	for _, frac := range []float64{0.25, 0.4, 0.55, 0.7, 0.85, 1.0} {
		depth := maxDepth * frac
		if depth < 0.004 {
			continue
		}
		for _, gap := range []float64{0.001, 0.0015, 0.002, 0.003, 0.004} {
			sink := HeatSink{
				Width:         width,
				FinHeight:     MaxSinkHeight - StdBase,
				Depth:         depth,
				BaseThickness: StdBase,
				FinThickness:  StdFin,
				Gap:           gap,
				FinMaterial:   Aluminum,
				TIM:           DefaultTIM(),
			}
			if sink.Validate() != nil {
				continue
			}
			lane := NewLane(fan, sink, chips, dieAreaMM2, opt.Layout)
			lane.InletC = opt.InletC
			lane.MaxTjC = opt.MaxTjC
			lane.LaneLen = opt.LaneLen
			lane.ExtraRow = opt.ExtraRow
			if lane.Validate() != nil {
				continue
			}
			// The air path is the same for either spreader: neither the
			// flow network nor the geometry checks read a material, so
			// one airflow solve serves both.
			q, _ := lane.Airflow()
			// Table 2 allows an aluminum or copper heat spreader; the
			// sweep tries both (copper spreads better, aluminum is
			// cheaper — thermals decide here, cost ties break to Cu's
			// better worst-chip margin).
			for _, base := range []Material{Copper, Aluminum} {
				lane.Sink.BaseMaterial = base
				p := lane.maxChipPowerAt(q)
				if !found || p > best.ChipPower {
					best = OptimizeResult{
						Sink:         lane.Sink,
						Lane:         lane,
						ChipPower:    p,
						LanePower:    p * float64(chips),
						SinkFlow:     q,
						ResistanceKW: lane.Sink.Resistance(q, dieAreaMM2).Total(),
					}
					found = true
				}
			}
		}
	}
	return best, found
}
