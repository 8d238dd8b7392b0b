package thermal

import (
	"math"
	"testing"
	"testing/quick"

	"asiccloud/internal/units"
)

func stdSink() HeatSink {
	return HeatSink{
		Width:         0.046,
		FinHeight:     0.032,
		Depth:         0.050,
		BaseThickness: StdBase,
		FinThickness:  StdFin,
		Gap:           0.001,
		FinMaterial:   Aluminum,
		BaseMaterial:  Copper,
		TIM:           DefaultTIM(),
	}
}

func TestTIMResistanceInverseToArea(t *testing.T) {
	tim := DefaultTIM()
	r100 := tim.Resistance(100)
	r200 := tim.Resistance(200)
	if math.Abs(r100/r200-2) > 1e-9 {
		t.Errorf("TIM resistance should halve when area doubles: %v vs %v", r100, r200)
	}
	// Calibration: ~25 K/W at 1 mm² with the default 0.1 mm / 4 W/mK TIM.
	if r1 := tim.Resistance(1); math.Abs(r1-25) > 1 {
		t.Errorf("TIM resistance at 1 mm² = %v, want ~25 K/W", r1)
	}
	if tim.Resistance(0) != 0 {
		t.Error("zero area should return zero resistance")
	}
}

func TestHeatSinkValidate(t *testing.T) {
	if err := stdSink().Validate(); err != nil {
		t.Fatalf("standard sink rejected: %v", err)
	}
	bad := []func(*HeatSink){
		func(h *HeatSink) { h.Width = 0.090 },     // > 85 mm
		func(h *HeatSink) { h.FinHeight = 0.034 }, // + 3 mm base > 35 mm
		func(h *HeatSink) { h.Depth = 0.101 },     // > 100 mm
		func(h *HeatSink) { h.Gap = 0.0005 },      // < 1 mm
		func(h *HeatSink) { h.Depth = 0 },
		func(h *HeatSink) { h.FinThickness = 0 },
		func(h *HeatSink) { h.Width = 0.001 }, // < 2 fins
	}
	for i, mutate := range bad {
		h := stdSink()
		mutate(&h)
		if err := h.Validate(); err == nil {
			t.Errorf("mutation %d not rejected", i)
		}
	}
}

func TestFinGeometry(t *testing.T) {
	h := stdSink()
	// 46 mm wide at 1.5 mm pitch: 31 fins, 30 channels.
	if got := h.FinCount(); got != 31 {
		t.Errorf("FinCount = %d, want 31", got)
	}
	if got := h.ChannelCount(); got != 30 {
		t.Errorf("ChannelCount = %d, want 30", got)
	}
	wantOpen := 30 * 0.001 * 0.032
	if got := h.OpenArea(); math.Abs(got-wantOpen) > 1e-12 {
		t.Errorf("OpenArea = %v, want %v", got, wantOpen)
	}
}

func TestPressureDropIncreasesWithFlowAndDepth(t *testing.T) {
	h := stdSink()
	if h.PressureDrop(0) != 0 {
		t.Error("no flow, no pressure drop")
	}
	p1 := h.PressureDrop(0.004)
	p2 := h.PressureDrop(0.008)
	if p2 <= p1 {
		t.Errorf("pressure drop should grow with flow: %v vs %v", p1, p2)
	}
	deep := h
	deep.Depth = 0.100
	if deep.PressureDrop(0.004) <= p1 {
		t.Error("deeper sink should drop more pressure — the effect that drives shallower sinks at high chip counts")
	}
	narrow := h
	narrow.Gap = 0.003
	if narrow.PressureDrop(0.004) >= p1 {
		t.Error("wider gaps should reduce pressure drop")
	}
}

func TestPressureDropMonotoneProperty(t *testing.T) {
	h := stdSink()
	f := func(a, b uint16) bool {
		q1 := 0.0001 + 0.012*float64(a)/65535
		q2 := 0.0001 + 0.012*float64(b)/65535
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		return h.PressureDrop(q1) <= h.PressureDrop(q2)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResistanceBreakdown(t *testing.T) {
	h := stdSink()
	r := h.Resistance(0.005, 100)
	if r.TIM <= 0 || r.Spreading <= 0 || r.Convection <= 0 {
		t.Fatalf("all components should be positive: %+v", r)
	}
	if got := r.Total(); math.Abs(got-(r.TIM+r.Spreading+r.Convection)) > 1e-12 {
		t.Errorf("Total() = %v, want sum of parts", got)
	}
	// Small dies are TIM-dominated (paper Figure 6).
	small := h.Resistance(0.005, 4)
	if small.TIM < 3*(small.Spreading+small.Convection) {
		t.Errorf("4 mm² die should be TIM-dominated: %+v", small)
	}
	// Large dies are convection-dominated.
	large := h.Resistance(0.005, 600)
	if large.Convection < large.TIM {
		t.Errorf("600 mm² die should be convection-dominated: %+v", large)
	}
}

func TestResistanceFallsWithFlow(t *testing.T) {
	h := stdSink()
	slow := h.Resistance(0.002, 100).Total()
	fast := h.Resistance(0.008, 100).Total()
	if fast >= slow {
		t.Errorf("more airflow should cut resistance: %v vs %v", slow, fast)
	}
	still := h.Resistance(0, 100)
	if !math.IsInf(still.Convection, 1) {
		t.Error("no airflow should mean infinite convection resistance")
	}
}

func TestCopperSpreaderBeatsAluminum(t *testing.T) {
	cu := stdSink()
	al := stdSink()
	al.BaseMaterial = Aluminum
	rcu := cu.Resistance(0.005, 50).Spreading
	ral := al.Resistance(0.005, 50).Spreading
	if rcu >= ral {
		t.Errorf("copper base should spread better: Cu %v vs Al %v", rcu, ral)
	}
	if cu.Cost() <= al.Cost() {
		t.Error("copper sink should cost more")
	}
}

func TestSinkMassAndCost(t *testing.T) {
	h := stdSink()
	c := h.Cost()
	if c < 0.5 || c > 10 {
		t.Errorf("sink cost = $%.2f, want low-cost commodity range", c)
	}
}

func TestFanCurve(t *testing.T) {
	f := Default1UFan()
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := f.PressureAt(0); got != f.MaxPressure {
		t.Errorf("stall pressure = %v, want %v", got, f.MaxPressure)
	}
	if got := f.PressureAt(f.MaxFlow); got != 0 {
		t.Errorf("free-air pressure = %v, want 0", got)
	}
	if got := f.PressureAt(f.MaxFlow * 2); got != 0 {
		t.Errorf("beyond free-air = %v, want 0", got)
	}
	// FlowAt inverts PressureAt.
	for _, q := range []float64{0.001, 0.004, 0.008} {
		p := f.PressureAt(q)
		if got := f.FlowAt(p); math.Abs(got-q) > 1e-9 {
			t.Errorf("FlowAt(PressureAt(%v)) = %v", q, got)
		}
	}
	if f.FlowAt(f.MaxPressure+1) != 0 {
		t.Error("overpressure should stall the fan")
	}
	if f.FlowAt(-5) != f.MaxFlow {
		t.Error("negative pressure should deliver free-air flow")
	}
}

func TestFanValidate(t *testing.T) {
	bad := Fan{Name: "bad", MaxPressure: 0, MaxFlow: 1}
	if err := bad.Validate(); err == nil {
		t.Error("zero pressure fan should fail validation")
	}
	bad2 := Fan{Name: "bad2", MaxPressure: 100, MaxFlow: 0.01, Power: -1}
	if err := bad2.Validate(); err == nil {
		t.Error("negative power fan should fail validation")
	}
}

// PressureDrop returns the static pressure loss (Pa) of flow q (m³/s)
// through the sink, computing its channel terms afresh; Lane.Airflow
// computes them once per solve and evaluates the same arithmetic.
func (h HeatSink) PressureDrop(q float64) float64 {
	return h.channel().pressureDrop(q)
}

// Resistance is the thermal resistance breakdown from junction to the air
// entering the sink, for through-sink flow q and a die of dieAreaMM2.
type Resistance struct {
	TIM        float64 // die → spreader interface (K/W)
	Spreading  float64 // constriction in the spreader (K/W)
	Convection float64 // fins → air (K/W)
}

// Total junction-to-inlet-air resistance in K/W.
func (r Resistance) Total() float64 { return r.TIM + r.Spreading + r.Convection }

// spreading is the spreader's constriction plus base-conduction
// resistance (K/W) under a die of dieAreaMM2, through the terms
// SinkCandidates.Best shares between its two spreaders.
func (h HeatSink) spreading(dieAreaMM2 float64) float64 {
	dieM2 := units.MM2ToM2(dieAreaMM2)
	baseM2 := h.Width * h.Depth
	return constriction(dieM2, radius(dieM2), baseM2, radius(baseM2)).
		resistance(h.BaseMaterial.Conductivity, h.BaseThickness)
}

// Resistance computes the resistance network at flow q for the given die.
// The TIM term is inversely proportional to die area — the reason the
// paper's Figure 6 shows small dies unable to use a big sink, and the
// reason more total silicon per lane can dissipate more total heat.
func (h HeatSink) Resistance(q, dieAreaMM2 float64) Resistance {
	return Resistance{
		TIM:        h.TIM.Resistance(dieAreaMM2),
		Spreading:  h.spreading(dieAreaMM2),
		Convection: h.convection(q),
	}
}

// sameFloat reports whether a and b are the same float64 bit for bit,
// any NaN matching any other.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// pinSinks is a grid of sinks for the tests that pin rewritten formulas
// to their earlier form: buildable ones, one too narrow for two fins
// and one without fin height (both with no open area), and one whose
// footprint is below a 1 mm² die.
func pinSinks() []HeatSink {
	var sinks []HeatSink
	for _, width := range []float64{0.046, 0.085} {
		for _, depth := range []float64{0.004, 0.03, 0.1} {
			for _, gap := range []float64{0.001, 0.002, 0.004} {
				for _, base := range []Material{Copper, Aluminum} {
					h := stdSink()
					h.Width, h.Depth, h.Gap, h.BaseMaterial = width, depth, gap, base
					sinks = append(sinks, h)
				}
			}
		}
	}
	narrow, flat, tiny := stdSink(), stdSink(), stdSink()
	narrow.Width = 0.001
	flat.FinHeight = 0
	tiny.Width, tiny.Depth = 0.0005, 0.0005
	return append(sinks, narrow, flat, tiny)
}

// parentChannelVelocity and parentPressureDrop are the pressure-drop
// formula as it stood before its sink-only terms moved into channel,
// copied verbatim: the reference PressureDrop must match bit for bit.
func parentChannelVelocity(h HeatSink, q float64) float64 {
	oa := h.OpenArea()
	if oa <= 0 {
		return 0
	}
	return q / oa
}

func parentPressureDrop(h HeatSink, q float64) float64 {
	if q <= 0 {
		return 0
	}
	v := parentChannelVelocity(h, q)
	dh := h.hydraulicDiameter()
	re := v * dh / units.AirViscosity
	var f float64
	if re < 2300 {
		// Laminar parallel-plate friction, f·Re ≈ 96 for high aspect
		// ratio channels; use 64-96 blend on aspect ratio.
		fre := 96.0 - 32.0*(h.Gap/h.FinHeight)
		if re < 1 {
			re = 1
		}
		f = fre / re
	} else {
		f = 0.316 / math.Pow(re, 0.25) // Blasius
	}
	dyn := units.AirDensity * v * v / 2
	friction := f * (h.Depth / dh) * dyn
	// Contraction/expansion loss at the sink faces. In a ducted lane the
	// sinks nearly abut, so the loss per sink is small.
	const kEntranceExit = 0.15
	return friction + kEntranceExit*dyn
}

// parentSpreading is the spreading formula as it stood before its
// material-free terms moved into spreadTerms, copied verbatim.
func parentSpreading(h HeatSink, dieAreaMM2 float64) float64 {
	// Spreading resistance (maximum-constriction approximation):
	// R = (1 - r1/r2)^1.5 / (pi * k * r1).
	dieM2 := units.MM2ToM2(dieAreaMM2)
	baseM2 := h.Width * h.Depth
	var rSpread float64
	if dieM2 < baseM2 {
		r1 := math.Sqrt(dieM2 / math.Pi)
		r2 := math.Sqrt(baseM2 / math.Pi)
		eps := r1 / r2
		rSpread = math.Pow(1-eps, 1.5) / (math.Pi * h.BaseMaterial.Conductivity * r1)
		// One-dimensional conduction through the base thickness.
		rSpread += h.BaseThickness / (h.BaseMaterial.Conductivity * baseM2)
	}
	return rSpread
}

// TestPressureDropMatchesParent pins PressureDrop, which now evaluates
// precomputed channel terms, to the earlier formula over sinks with and
// without open area and flows that are not positive, laminar (clamped
// below Re 1 and not), turbulent, NaN and infinite.
func TestPressureDropMatchesParent(t *testing.T) {
	flows := []float64{math.Inf(-1), -1, 0, 1e-9, 1e-7, 0.002, 0.01, 0.05, 1, math.Inf(1), math.NaN()}
	var laminar, turbulent int
	for _, h := range pinSinks() {
		for _, q := range flows {
			got, want := h.PressureDrop(q), parentPressureDrop(h, q)
			if !sameFloat(got, want) {
				t.Errorf("%+v: PressureDrop(%v) = %v, earlier form %v", h, q, got, want)
			}
			if q > 0 && h.OpenArea() > 0 {
				if re := q / h.OpenArea() * h.hydraulicDiameter() / units.AirViscosity; re < 2300 {
					laminar++
				} else if re >= 2300 {
					turbulent++
				}
			}
		}
	}
	if laminar == 0 || turbulent == 0 {
		t.Fatalf("grid must reach both friction regimes: %d laminar, %d turbulent cases", laminar, turbulent)
	}
}

// TestSpreadingMatchesParent pins the spreading term, which now shares
// its material-free part between spreaders, to the earlier formula
// over dies below, at and above each footprint and degenerate areas.
func TestSpreadingMatchesParent(t *testing.T) {
	areas := []float64{math.Inf(-1), -1, 0, math.SmallestNonzeroFloat64, 1e-3, 0.5, 1, 60, 599.9, 1380, 2000, 1e4, 1e300, math.Inf(1), math.NaN()}
	for _, h := range pinSinks() {
		for _, area := range areas {
			if got, want := h.spreading(area), parentSpreading(h, area); !sameFloat(got, want) {
				t.Errorf("%+v: spreading(%v) = %v, earlier form %v", h, area, got, want)
			}
		}
	}
}
