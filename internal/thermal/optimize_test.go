package thermal

import (
	"fmt"
	"testing"
)

// referenceOptimizeSink is the straightforward form of the sink search:
// every (depth, gap, spreader) candidate is built, validated and scored
// with MaxChipPower on its own, and the airflow is solved once more for
// each new best. OptimizeSink must return exactly what it returns.
func referenceOptimizeSink(fan Fan, chips int, dieAreaMM2 float64, opt OptimizeOptions) (OptimizeResult, bool) {
	if chips <= 0 || dieAreaMM2 <= 0 {
		return OptimizeResult{}, false
	}
	width := min(opt.LaneWidth, MaxSinkWidth)
	maxDepth := min((opt.LaneLen-opt.ExtraRow)/float64(chips), MaxSinkDepth)
	if maxDepth < 0.004 {
		return OptimizeResult{}, false
	}
	var best OptimizeResult
	found := false
	for _, frac := range []float64{0.25, 0.4, 0.55, 0.7, 0.85, 1.0} {
		depth := maxDepth * frac
		if depth < 0.004 {
			continue
		}
		for _, gap := range []float64{0.001, 0.0015, 0.002, 0.003, 0.004} {
			for _, base := range []Material{Copper, Aluminum} {
				sink := HeatSink{
					Width:         width,
					FinHeight:     MaxSinkHeight - StdBase,
					Depth:         depth,
					BaseThickness: StdBase,
					FinThickness:  StdFin,
					Gap:           gap,
					FinMaterial:   Aluminum,
					BaseMaterial:  base,
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
				p := lane.MaxChipPower()
				if !found || p > best.ChipPower {
					q, _ := lane.Airflow()
					best = OptimizeResult{
						Sink:         sink,
						Lane:         lane,
						ChipPower:    p,
						LanePower:    p * float64(chips),
						SinkFlow:     q,
						ResistanceKW: sink.Resistance(q, dieAreaMM2).Total(),
					}
					found = true
				}
			}
		}
	}
	return best, found
}

// TestOptimizeSinkMatchesReference pins the one-airflow-solve-per-
// geometry search to the reference bit for bit, over every layout (the
// Normal and Staggered ones take Airflow's bypass branch, which no
// sweep golden exercises), chip counts up to a lane that cannot fit,
// die areas from TIM-bound to spreader-bound, DRAM-row reservations
// and inlet temperatures, infeasible cases included. A 2000 mm² die
// covers the whole spreader of every sink shallower than 43 mm, so
// copper and aluminum score exactly alike there and only the strict >
// keeps copper.
func TestOptimizeSinkMatchesReference(t *testing.T) {
	fan := Default1UFan()
	var feasible, infeasible int
	for _, layout := range []Layout{LayoutNormal, LayoutStaggered, LayoutDuct} {
		for _, chips := range []int{1, 2, 5, 8, 12, 20, 200} {
			for _, area := range []float64{1, 10, 60, 200, 600, 2000} {
				for _, extra := range []float64{0, 0.05, 0.25} {
					for _, inlet := range []float64{30, 40} {
						opt := DefaultOptimizeOptions()
						opt.Layout = layout
						opt.ExtraRow = extra
						opt.InletC = inlet
						name := fmt.Sprintf("%v/chips=%d/area=%g/extra=%g/inlet=%g",
							layout, chips, area, extra, inlet)
						got, ok := OptimizeSink(fan, chips, area, opt)
						want, wantOK := referenceOptimizeSink(fan, chips, area, opt)
						if ok != wantOK || got != want {
							t.Errorf("%s: OptimizeSink = %+v, %v; reference %+v, %v",
								name, got, ok, want, wantOK)
						}
						if wantOK {
							feasible++
						} else {
							infeasible++
						}
					}
				}
			}
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("grid must cover both outcomes: %d feasible, %d infeasible", feasible, infeasible)
	}
}
