package thermal

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"asiccloud/internal/units"
)

func stdLane(chips int, dieArea float64, layout Layout) Lane {
	sink := stdSink()
	sink.Depth = 0.030
	return NewLane(Default1UFan(), sink, chips, dieArea, layout)
}

func TestLaneValidate(t *testing.T) {
	if err := stdLane(10, 100, LayoutDuct).Validate(); err != nil {
		t.Fatalf("standard lane rejected: %v", err)
	}
	l := stdLane(0, 100, LayoutDuct)
	if err := l.Validate(); err == nil {
		t.Error("zero chips should fail")
	}
	l = stdLane(10, -5, LayoutDuct)
	if err := l.Validate(); err == nil {
		t.Error("negative die area should fail")
	}
	// Too many deep sinks for the lane length.
	l = stdLane(25, 100, LayoutDuct)
	l.Sink.Depth = 0.030 // 25 * 30 mm = 750 mm > 600 mm
	if err := l.Validate(); err == nil {
		t.Error("sinks exceeding lane depth should fail")
	}
	l = stdLane(5, 100, LayoutDuct)
	l.MaxTjC = 20 // below inlet
	if err := l.Validate(); err == nil {
		t.Error("junction limit below inlet should fail")
	}
	l = stdLane(10, 100, LayoutDuct)
	l.ExtraRow = 0.5 // 10*30mm + 500mm > 600mm
	if err := l.Validate(); err == nil {
		t.Error("extra row overflow should fail")
	}
}

func TestAirflowRespectsFanCurve(t *testing.T) {
	l := stdLane(10, 100, LayoutDuct)
	sinkQ, fanQ := l.Airflow()
	if sinkQ <= 0 || fanQ <= 0 {
		t.Fatalf("airflow should be positive: sink %v fan %v", sinkQ, fanQ)
	}
	if fanQ > l.Fan.MaxFlow {
		t.Errorf("fan flow %v exceeds free-air max %v", fanQ, l.Fan.MaxFlow)
	}
	// Ducted layout: no bypass.
	if math.Abs(sinkQ-fanQ) > 1e-9 {
		t.Errorf("duct layout should have no bypass: sink %v fan %v", sinkQ, fanQ)
	}
	// Flow equals the fan-curve flow at the lane's pressure drop.
	dp := float64(l.Chips) * l.Sink.PressureDrop(sinkQ)
	if got := l.Fan.FlowAt(dp); math.Abs(got-fanQ)/fanQ > 0.01 {
		t.Errorf("operating point inconsistent: fan flow at %v Pa = %v, solved %v", dp, got, fanQ)
	}
}

func TestBypassLayouts(t *testing.T) {
	for _, layout := range []Layout{LayoutNormal, LayoutStaggered} {
		l := stdLane(10, 100, layout)
		sinkQ, fanQ := l.Airflow()
		if sinkQ >= fanQ {
			t.Errorf("%v should bypass some air: sink %v fan %v", layout, sinkQ, fanQ)
		}
	}
	// Normal bypasses far more than staggered.
	nSink, nFan := stdLane(10, 100, LayoutNormal).Airflow()
	sSink, sFan := stdLane(10, 100, LayoutStaggered).Airflow()
	if nSink/nFan >= sSink/sFan {
		t.Errorf("normal layout should waste more air: %v vs %v", nSink/nFan, sSink/sFan)
	}
}

func TestMoreChipsMorePressureLessFlow(t *testing.T) {
	few := stdLane(5, 100, LayoutDuct)
	many := stdLane(18, 100, LayoutDuct)
	qFew, _ := few.Airflow()
	qMany, _ := many.Airflow()
	if qMany >= qFew {
		t.Errorf("more sinks in series should reduce flow: %v vs %v", qFew, qMany)
	}
}

func TestJunctionTempsRiseDownstream(t *testing.T) {
	l := stdLane(10, 100, LayoutDuct)
	temps := l.JunctionTemps(20)
	if len(temps) != 10 {
		t.Fatalf("got %d temps, want 10", len(temps))
	}
	// "Typically the thermally bottlenecking ASIC is the one in the back."
	hottest := temps[0]
	for _, x := range temps {
		if x > hottest {
			hottest = x
		}
	}
	if hottest != temps[len(temps)-1] {
		t.Errorf("last chip should be hottest: %v", temps)
	}
	for i, x := range temps {
		if x <= l.InletC {
			t.Errorf("chip %d at %v °C is below inlet", i, x)
		}
	}
}

func TestJunctionTempsMonotoneInPower(t *testing.T) {
	l := stdLane(8, 200, LayoutDuct)
	f := func(a, b uint16) bool {
		p1 := float64(a%200) + 1
		p2 := float64(b%200) + 1
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		t1 := l.JunctionTemps(p1)
		t2 := l.JunctionTemps(p2)
		for i := range t1 {
			if t1[i] > t2[i]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestHottestJunctionNeverFallsWithChips is a physics invariant of the
// lane model: at a fixed sink, die area, per-chip power and layout,
// adding a chip to the lane never cools its hottest junction. Each
// extra sink in series costs fan pressure (less flow, so less heat
// capacity and convection) and pre-heats the air the back chip
// breathes. The per-chip power limit the sweep prunes by is read off
// the worst coefficient, so this guards that arithmetic too: on every
// lane, worstCoeff's closed form must equal the largest coefficient of
// the chip-by-chip walk bit for bit.
func TestHottestJunctionNeverFallsWithChips(t *testing.T) {
	const powerPerChip = 5.0 // W
	cases := 0
	for _, layout := range []Layout{LayoutNormal, LayoutStaggered, LayoutDuct} {
		for _, depth := range []float64{0.005, 0.010, 0.020, 0.040, 0.080} {
			for _, gap := range []float64{0.001, 0.002, 0.004} {
				for _, area := range []float64{10, 60, 200, 600} {
					prev := math.Inf(-1)
					for chips := 1; chips <= 60; chips++ {
						l := stdLane(chips, area, layout)
						l.Sink.Depth, l.Sink.Gap = depth, gap
						q, _ := l.Airflow()
						hottest := slices.Max(l.junctionTempsAt(q, powerPerChip))
						if hottest < prev {
							t.Errorf("%v depth=%g gap=%g area=%g: hottest junction falls from %v to %v °C at %d chips",
								layout, depth, gap, area, prev, hottest, chips)
						}
						prev = hottest
						res := l.Sink.Resistance(q, area)
						w := newCoeffWalk(chips, layout, res, q)
						got, want := worstCoeff(lastChipAir(chips, q), w.rWorst), walkWorstCoeff(chips, layout, res, q)
						if !sameFloat(got, want) {
							t.Errorf("%v depth=%g gap=%g area=%g chips=%d: worstCoeff = %v, the walk's largest coefficient %v",
								layout, depth, gap, area, chips, got, want)
						}
						cases++
					}
				}
			}
		}
	}
	if cases != 3*5*3*4*60 {
		t.Fatalf("checked %d cases, want %d", cases, 3*5*3*4*60)
	}
}

func TestMaxChipPowerHitsJunctionLimit(t *testing.T) {
	l := stdLane(10, 300, LayoutDuct)
	p := l.MaxChipPower()
	if p <= 0 {
		t.Fatal("max power should be positive")
	}
	temps := l.JunctionTemps(p)
	hottest := temps[0]
	for _, x := range temps {
		if x > hottest {
			hottest = x
		}
	}
	if math.Abs(hottest-l.MaxTjC) > 0.1 {
		t.Errorf("hottest junction at max power = %v, want %v", hottest, l.MaxTjC)
	}
}

func TestMaxPowerZeroForInvalidLane(t *testing.T) {
	l := stdLane(0, 100, LayoutDuct)
	if got := l.MaxChipPower(); got != 0 {
		t.Errorf("invalid lane max power = %v, want 0", got)
	}
}

func TestLayoutOrderingFigure8(t *testing.T) {
	// Paper Figure 8: Staggered removes ~64-65% more heat than Normal;
	// DUCT gains ~15% over Staggered. We assert the ordering and rough
	// magnitudes (1.4-1.8x and 1.05-1.25x).
	opt := DefaultOptimizeOptions()
	power := map[Layout]float64{}
	for _, layout := range []Layout{LayoutNormal, LayoutStaggered, LayoutDuct} {
		o := opt
		o.Layout = layout
		r, ok := OptimizeSink(Default1UFan(), 4, 100, o)
		if !ok {
			t.Fatalf("optimize failed for %v", layout)
		}
		power[layout] = r.LanePower
	}
	sn := power[LayoutStaggered] / power[LayoutNormal]
	ds := power[LayoutDuct] / power[LayoutStaggered]
	if sn < 1.4 || sn > 1.8 {
		t.Errorf("staggered/normal = %.2f, want ~1.65 (paper: +64-65%%)", sn)
	}
	if ds < 1.05 || ds > 1.25 {
		t.Errorf("duct/staggered = %.2f, want ~1.15 (paper: +15%%)", ds)
	}
}

func TestLayoutString(t *testing.T) {
	if LayoutNormal.String() != "Normal" || LayoutStaggered.String() != "Staggered" || LayoutDuct.String() != "DUCT" {
		t.Error("layout names wrong")
	}
	if Layout(99).String() != "Layout(99)" {
		t.Error("unknown layout name wrong")
	}
}

func TestFigure9MoreSiliconMorePower(t *testing.T) {
	// Paper Figure 9: "Greater total area also increases the allowable
	// power since there is more TIM."
	opt := DefaultOptimizeOptions()
	prev := 0.0
	for _, total := range []float64{50, 130, 330, 850, 2200} {
		r, ok := OptimizeSink(Default1UFan(), 10, total/10, opt)
		if !ok {
			t.Fatalf("optimize failed for %v mm²", total)
		}
		if r.LanePower <= prev {
			t.Errorf("lane power for %v mm² (%v W) should exceed smaller series (%v W)",
				total, r.LanePower, prev)
		}
		prev = r.LanePower
	}
}

func TestFigure9MoreChipsAtLeastAsGood(t *testing.T) {
	// Paper Figure 9: spreading a fixed total silicon area across more
	// chips increases (never decreases, in the 5-20 range) the total
	// allowable power.
	opt := DefaultOptimizeOptions()
	const total = 2200.0
	r5, ok5 := OptimizeSink(Default1UFan(), 5, total/5, opt)
	r10, ok10 := OptimizeSink(Default1UFan(), 10, total/10, opt)
	if !ok5 || !ok10 {
		t.Fatal("optimize failed")
	}
	if r10.LanePower <= r5.LanePower {
		t.Errorf("10 chips (%v W) should beat 5 chips (%v W) at fixed silicon",
			r10.LanePower, r5.LanePower)
	}
}

func TestOptimizeSinkRespectsGeometry(t *testing.T) {
	opt := DefaultOptimizeOptions()
	r, ok := OptimizeSink(Default1UFan(), 12, 200, opt)
	if !ok {
		t.Fatal("optimize failed")
	}
	if err := r.Sink.Validate(); err != nil {
		t.Errorf("optimizer returned invalid sink: %v", err)
	}
	if err := r.Lane.Validate(); err != nil {
		t.Errorf("optimizer returned invalid lane: %v", err)
	}
	if float64(12)*r.Sink.Depth > opt.LaneLen+1e-9 {
		t.Error("sinks exceed lane depth")
	}
}

func TestOptimizeSinkDepthShrinksWithChips(t *testing.T) {
	// "As the number of ASICs increases, the heat sinks become less deep
	// to reduce pressure drop and keep the airflow rate up."
	opt := DefaultOptimizeOptions()
	r2, ok2 := OptimizeSink(Default1UFan(), 2, 300, opt)
	r20, ok20 := OptimizeSink(Default1UFan(), 20, 30, opt)
	if !ok2 || !ok20 {
		t.Fatal("optimize failed")
	}
	if r20.Sink.Depth >= r2.Sink.Depth {
		t.Errorf("20-chip sink depth %v should be below 2-chip depth %v",
			r20.Sink.Depth, r2.Sink.Depth)
	}
}

func TestOptimizeSinkFailsWhenImpossible(t *testing.T) {
	if _, ok := OptimizeSink(Default1UFan(), 0, 100, DefaultOptimizeOptions()); ok {
		t.Error("zero chips should fail")
	}
	if _, ok := OptimizeSink(Default1UFan(), 5, -1, DefaultOptimizeOptions()); ok {
		t.Error("negative die should fail")
	}
	// 200 chips cannot fit 600 mm of lane at any sink depth >= 4 mm.
	if _, ok := OptimizeSink(Default1UFan(), 200, 10, DefaultOptimizeOptions()); ok {
		t.Error("200 chips should not fit")
	}
}

func TestExtraRowReducesCapacity(t *testing.T) {
	// DRAM rows eat lane depth (video transcode servers), shrinking the
	// thermal budget.
	opt := DefaultOptimizeOptions()
	base, ok1 := OptimizeSink(Default1UFan(), 8, 200, opt)
	opt.ExtraRow = 0.25
	crowded, ok2 := OptimizeSink(Default1UFan(), 8, 200, opt)
	if !ok1 || !ok2 {
		t.Fatal("optimize failed")
	}
	if crowded.LanePower >= base.LanePower {
		t.Errorf("DRAM rows should cost thermal capacity: %v vs %v",
			crowded.LanePower, base.LanePower)
	}
}

func TestOptimizerSweepsSpreaderMaterial(t *testing.T) {
	// The optimizer tries both Table 2 spreader materials and never
	// loses to a fixed-copper search.
	opt := DefaultOptimizeOptions()
	r, ok := OptimizeSink(Default1UFan(), 8, 60, opt)
	if !ok {
		t.Fatal("optimize failed")
	}
	if r.Sink.BaseMaterial != Copper && r.Sink.BaseMaterial != Aluminum {
		t.Errorf("unexpected spreader material %v", r.Sink.BaseMaterial.Name)
	}
	// Force-compare: the winning configuration must dominate its own
	// other-material twin.
	twin := r.Sink
	if twin.BaseMaterial == Copper {
		twin.BaseMaterial = Aluminum
	} else {
		twin.BaseMaterial = Copper
	}
	lane := r.Lane
	lane.Sink = twin
	if lane.MaxChipPower() > r.ChipPower+1e-9 {
		t.Error("optimizer picked the inferior spreader material")
	}
}

// NewLane builds a lane with the paper's standard environment (30 °C
// inlet, 90 °C junction limit, 600 mm usable depth).
func NewLane(fan Fan, sink HeatSink, chips int, dieAreaMM2 float64, layout Layout) Lane {
	return Lane{
		Fan:     fan,
		Sink:    sink,
		Chips:   chips,
		DieArea: dieAreaMM2,
		Layout:  layout,
		InletC:  30,
		MaxTjC:  90,
		LaneLen: DefaultLaneLength,
	}
}

// Validate checks lane geometry, including that the sinks fit the lane.
func (l Lane) Validate() error {
	if l.Chips <= 0 {
		return fmt.Errorf("thermal: lane needs at least one chip")
	}
	if l.DieArea <= 0 {
		return fmt.Errorf("thermal: lane die area must be positive")
	}
	return l.validateAir()
}

// JunctionTemps returns the junction temperature of each chip when every
// chip dissipates powerPerChip watts. Chips downstream breathe air heated
// by their upstream neighbours: "typically the thermally bottlenecking
// ASIC is the one in the back."
// The model includes two air-side corrections beyond the well-mixed
// mean: the air warms by each chip's own heat while crossing its sink
// (fins see the mean of inlet and exit), and the hot core of the
// upstream chip's exhaust plume is not fully mixed when it reaches the
// next sink. Both penalize lanes that concentrate heat into a few large
// sources — the effect the paper observes in CFD ("heat generation is
// more evenly spread across the lane").
func (l Lane) JunctionTemps(powerPerChip float64) []float64 {
	q, _ := l.Airflow()
	return l.junctionTempsAt(q, powerPerChip)
}

// junctionTempsAt is JunctionTemps at the through-sink flow q (m³/s)
// that Airflow solves.
func (l Lane) junctionTempsAt(q, powerPerChip float64) []float64 {
	w := newCoeffWalk(l.Chips, l.Layout, l.Sink.Resistance(q, l.DieArea), q)
	temps := make([]float64, l.Chips)
	for i := range temps {
		temps[i] = l.InletC + powerPerChip*w.next(i)
	}
	return temps
}

// MaxChipPower returns the highest uniform per-chip power that keeps every
// junction at or below the limit ("iterative simulations gradually
// increase the ASICs' power until at least some part of one die reaches
// the maximum junction temperature").
func (l Lane) MaxChipPower() float64 {
	if err := l.Validate(); err != nil {
		return 0
	}
	q, _ := l.Airflow()
	return l.maxChipPowerAt(q)
}

// maxChipPowerAt is MaxChipPower of a valid lane at the through-sink
// flow q (m³/s) that Airflow solves for it.
func (l Lane) maxChipPowerAt(q float64) float64 {
	worst := walkWorstCoeff(l.Chips, l.Layout, l.Sink.Resistance(q, l.DieArea), q)
	return chipPowerLimit(l.MaxTjC-l.InletC, worst)
}

// coeffWalk computes, one chip at a time from front to back, the
// per-chip coefficients k (K/W) such that the junction temperature of
// chip i at uniform per-chip power P is InletC + k[i]·P. It is the
// reference for worstCoeff and lastChipAir, which read the largest
// coefficient off the last chip without walking the others.
type coeffWalk struct {
	chips     int
	r, rWorst float64 // K/W junction to local air; rWorst for the last chip
	// first and rest are the K/W a chip's fins see above the upstream
	// mean: half the chip's own air rise (fins see the mean of inlet
	// and exit), plus, for every chip but the first, the unmixed plume
	// of the one ahead of it.
	first, rest float64
	step        float64 // K/W mean air rise each chip adds downstream
	upstream    float64 // K/W accumulated mean air rise so far
}

// newCoeffWalk starts the walk over a lane of chips in layout whose
// sinks present res and carry q (m³/s).
func newCoeffWalk(chips int, layout Layout, res Resistance, q float64) coeffWalk {
	p := layout.params()
	w := coeffWalk{
		chips:  chips,
		r:      res.Total(),
		rWorst: res.TIM + res.Spreading + res.Convection/p.uniformity,
		first:  math.Inf(1),
		rest:   math.Inf(1),
		step:   math.Inf(1),
	}
	heatCap := units.AirDensity * units.AirSpecificHeat * q // W/K
	if heatCap > 0 {
		const plume = 1.5
		w.first = 1 / (2 * heatCap)
		w.rest = w.first + plume/heatCap
		w.step = 1 / heatCap
	}
	return w
}

// next returns chip i's coefficient (K/W); i must run 0, 1, 2, ...
func (w *coeffWalk) next(i int) float64 {
	r, extra := w.r, w.rest
	if i == w.chips-1 {
		r = w.rWorst
	}
	if i == 0 {
		extra = w.first
	}
	k := w.upstream + extra + r
	w.upstream += w.step
	return k
}

// walkWorstCoeff is the largest coefficient (K/W) of a lane of chips in
// layout whose sinks present res and carry q (m³/s), found by walking
// every chip; 0 when none is positive.
func walkWorstCoeff(chips int, layout Layout, res Resistance, q float64) float64 {
	w := newCoeffWalk(chips, layout, res, q)
	worst := 0.0
	for i := 0; i < chips; i++ {
		if k := w.next(i); k > worst {
			worst = k
		}
	}
	return worst
}

// parentAirflow is Lane.Airflow as it stood before the sink's channel
// terms were hoisted out of its bisections, copied verbatim with
// parentPressureDrop for the method: Airflow must match it bit for bit.
func parentAirflow(l Lane) (sinkFlow, fanFlow float64) {
	p := l.Layout.params()

	sinkPathDrop := func(q float64) float64 {
		return float64(l.Chips) * parentPressureDrop(l.Sink, q)
	}
	//lint:ignore floatcmp bypassArea==0 is the assigned ducted-layout marker, never computed
	if p.bypassArea == 0 {
		// Ducted: all fan air goes through the sinks; the operating
		// point is the single crossing of the fan curve and the sink
		// path resistance.
		sinkFlow, _ = units.Bisect(func(q float64) float64 {
			return sinkPathDrop(q) - l.Fan.PressureAt(q)
		}, 1e-9, l.Fan.MaxFlow, 1e-9, 100)
		return sinkFlow, sinkFlow
	}
	bypassFlow := func(dp float64) float64 {
		if dp <= 0 {
			return 0
		}
		v := math.Sqrt(2 * dp / (units.AirDensity * p.bypassK))
		return v * p.bypassArea
	}
	// Find operating pressure where fan flow equals sink + bypass flow.
	imbalance := func(dp float64) float64 {
		qs, _ := units.Bisect(func(q float64) float64 {
			return sinkPathDrop(q) - dp
		}, 0, l.Fan.MaxFlow*4, 1e-9, 100)
		return l.Fan.FlowAt(dp) - qs - bypassFlow(dp)
	}
	dp, _ := units.Bisect(imbalance, 1e-6, l.Fan.MaxPressure-1e-9, 1e-6, 200)
	sinkFlow, _ = units.Bisect(func(q float64) float64 {
		return sinkPathDrop(q) - dp
	}, 0, l.Fan.MaxFlow*4, 1e-9, 100)
	fanFlow = sinkFlow + bypassFlow(dp)
	return sinkFlow, fanFlow
}

// TestAirflowMatchesParent pins Airflow, whose bisections now evaluate
// the sink's precomputed channel terms, to the earlier form on the
// ducted and both bypass layouts, over the pinned sinks (open area
// included and not) and lanes of 1 to 40 chips.
func TestAirflowMatchesParent(t *testing.T) {
	for _, layout := range []Layout{LayoutNormal, LayoutStaggered, LayoutDuct} {
		for _, chips := range []int{1, 5, 40} {
			for _, h := range pinSinks() {
				l := NewLane(Default1UFan(), h, chips, 60, layout)
				sink, fan := l.Airflow()
				wantSink, wantFan := parentAirflow(l)
				if !sameFloat(sink, wantSink) || !sameFloat(fan, wantFan) {
					t.Errorf("%v chips=%d %+v: Airflow = %v, %v; earlier form %v, %v",
						layout, chips, h, sink, fan, wantSink, wantFan)
				}
			}
		}
	}
}
