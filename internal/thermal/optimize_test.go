package thermal

import (
	"fmt"
	"reflect"
	"testing"
)

// referenceOptimizeSink is the straightforward form of the sink search:
// every (depth, gap, spreader) candidate is built, validated and scored
// on its own, walking every chip's junction coefficient at the flow
// airflow returns for its lane. With solveAirflow, OptimizeSink must
// return exactly what it returns.
func referenceOptimizeSink(fan Fan, chips int, dieAreaMM2 float64, opt OptimizeOptions, airflow func(Lane) float64) (OptimizeResult, bool) {
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
				q := airflow(lane)
				p := lane.maxChipPowerAt(q)
				if !found || p > best.ChipPower {
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

// solveAirflow is the through-sink flow Lane.Airflow solves for l.
func solveAirflow(l Lane) float64 {
	q, _ := l.Airflow()
	return q
}

// dieFreeAirflow is solveAirflow memoized by the lane with its die area
// cleared, so a reference search over many die areas in one lane shape
// solves each candidate lane once. Airflow reads no die property, as
// TestAirflowMatchesParent pins it to a form that visibly reads none;
// the memo still tells the two spreaders' lanes apart.
func dieFreeAirflow() func(Lane) float64 {
	flows := make(map[Lane]float64)
	return func(l Lane) float64 {
		l.DieArea = 0
		q, ok := flows[l]
		if !ok {
			q = solveAirflow(l)
			flows[l] = q
		}
		return q
	}
}

// TestOptimizeSinkMatchesReference pins the search to the reference
// bit for bit, through both of its forms: OptimizeSink itself, and one
// SinkCandidates per lane shape (layout, chips, DRAM-row reservation,
// inlet) scored at every die area, the way the exploration engine
// plans. The grid covers every layout (the Normal and Staggered ones
// take Airflow's bypass branch, which no sweep golden exercises), chip
// counts up to a lane that cannot fit, die areas from 1e-3 mm² (TIM
// resistance in the tens of thousands of K/W) through 599.9 mm², just
// under the process's die cap, to 1e4 mm², larger than every spreader,
// and infeasible cases. A 2000 mm² die covers the whole spreader of
// every sink shallower than 43 mm, so copper and aluminum score
// exactly alike there and only the strict > keeps copper. The
// reference solves each candidate lane's airflow once per lane shape
// (dieFreeAirflow), which keeps the grid under a second.
func TestOptimizeSinkMatchesReference(t *testing.T) {
	fan := Default1UFan()
	var feasible, infeasible int
	for _, layout := range []Layout{LayoutNormal, LayoutStaggered, LayoutDuct} {
		for _, chips := range []int{1, 2, 3, 5, 8, 12, 20, 30, 60, 200} {
			for _, extra := range []float64{0, 0.05, 0.25} {
				for _, inlet := range []float64{30, 40} {
					opt := DefaultOptimizeOptions()
					opt.Layout = layout
					opt.ExtraRow = extra
					opt.InletC = inlet
					cands := NewSinkCandidates(fan, chips, opt)
					airflow := dieFreeAirflow()
					for _, area := range []float64{1e-3, 0.5, 1, 10, 60, 200, 599.9, 600, 2000, 1e4} {
						name := fmt.Sprintf("%v/chips=%d/area=%g/extra=%g/inlet=%g",
							layout, chips, area, extra, inlet)
						want, wantOK := referenceOptimizeSink(fan, chips, area, opt, airflow)
						got, ok := OptimizeSink(fan, chips, area, opt)
						if ok != wantOK || !sameResult(got, want) {
							t.Errorf("%s: OptimizeSink = %+v, %v; reference %+v, %v",
								name, got, ok, want, wantOK)
						}
						got, ok = cands.Best(area)
						if ok != wantOK || !sameResult(got, want) {
							t.Errorf("%s: SinkCandidates.Best = %+v, %v; reference %+v, %v",
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

// TestSinkCandidatesBestAllocatesNothing pins the scoring half of the
// search to zero allocations: an engine that has the candidate set of
// a lane shape plans each further die in it without touching the heap.
func TestSinkCandidatesBestAllocatesNothing(t *testing.T) {
	opt := DefaultOptimizeOptions()
	opt.ExtraRow = 0.05
	cands := NewSinkCandidates(Default1UFan(), 20, opt)
	if _, ok := cands.Best(60); !ok {
		t.Fatal("a 20-chip lane of 60 mm² dies should fit")
	}
	if n := testing.AllocsPerRun(100, func() { cands.Best(60) }); n != 0 {
		t.Errorf("SinkCandidates.Best allocates %v times per call, want 0", n)
	}
}

// FuzzSinkCandidatesBest scores a fuzzed lane shape (1 to 64 chips, a
// layout, any DRAM-row reservation and inlet) at any float64 die area:
// SinkCandidates.Best must return exactly what the reference search
// returns, any NaN matching any other. The corpus is in
// testdata/fuzz/FuzzSinkCandidatesBest; its seeds hold NaN, infinite,
// zero, negative, subnormal and huge die areas, a NaN and a -Inf inlet
// and a NaN reservation.
func FuzzSinkCandidatesBest(f *testing.F) {
	fan := Default1UFan()
	f.Fuzz(func(t *testing.T, chips, layout int, extra, inlet, area float64) {
		n := 1 + int(uint(chips)%64)
		opt := DefaultOptimizeOptions()
		opt.Layout = Layout(uint(layout) % 3)
		opt.ExtraRow, opt.InletC = extra, inlet
		got, ok := NewSinkCandidates(fan, n, opt).Best(area)
		want, wantOK := referenceOptimizeSink(fan, n, area, opt, solveAirflow)
		if ok != wantOK || !sameResult(got, want) {
			t.Fatalf("%v chips=%d extra=%v inlet=%v area=%v: Best = %+v, %v; reference %+v, %v",
				opt.Layout, n, extra, inlet, area, got, ok, want, wantOK)
		}
	})
}

// sameResult reports whether a and b hold the same values bit for bit,
// any NaN matching any other.
func sameResult(a, b OptimizeResult) bool {
	return sameValue(reflect.ValueOf(a), reflect.ValueOf(b))
}

func sameValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return sameFloat(a.Float(), b.Float())
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}
