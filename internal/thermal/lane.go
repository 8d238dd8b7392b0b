package thermal

import (
	"fmt"
	"math"

	"asiccloud/internal/units"
)

// Layout selects the PCB arrangement of ASICs and heat sinks relative to
// the airflow (paper Figure 7).
type Layout int

const (
	// LayoutNormal is a plain grid: heavy bypass airflow vents around
	// the sinks without contributing to cooling.
	LayoutNormal Layout = iota
	// LayoutStaggered offsets odd and even rows to spread hot airflows,
	// removing ~64-65% more heat than Normal, at the cost of wide
	// temperature variation between ASICs.
	LayoutStaggered
	// LayoutDuct encloses each column with its fan so that almost all
	// airflow passes through the sinks: ~15% better than Staggered.
	// This is the layout the paper adopts for all subsequent analysis.
	LayoutDuct
)

// String implements fmt.Stringer.
func (l Layout) String() string {
	switch l {
	case LayoutNormal:
		return "Normal"
	case LayoutStaggered:
		return "Staggered"
	case LayoutDuct:
		return "DUCT"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// layoutParams captures how each arrangement routes fan air.
type layoutParams struct {
	// bypassArea is the free cross-section (m²) around the sinks through
	// which air can escape without cooling anything.
	bypassArea float64
	// bypassK is the loss coefficient of the bypass path.
	bypassK float64
	// uniformity derates the convection seen by the worst-placed ASIC
	// (staggered rows receive visibly uneven airflow).
	uniformity float64
}

func (l Layout) params() layoutParams {
	switch l {
	case LayoutNormal:
		return layoutParams{bypassArea: 8.0e-4, bypassK: 0.8, uniformity: 0.75}
	case LayoutStaggered:
		return layoutParams{bypassArea: 1.8e-4, bypassK: 2.0, uniformity: 0.88}
	default: // LayoutDuct
		return layoutParams{bypassArea: 0, bypassK: math.Inf(1), uniformity: 1.0}
	}
}

// Lane is one fan-fed column of ASICs in a 1U server: the unit of thermal
// analysis in the paper's server model.
type Lane struct {
	Fan      Fan
	Sink     HeatSink // identical sink on every chip
	Chips    int
	DieArea  float64 // mm² per chip
	Layout   Layout
	InletC   float64 // machine-room inlet air, 30 °C in the paper
	MaxTjC   float64 // junction limit, 90 °C for the 28nm process
	LaneLen  float64 // usable lane depth (m) for sinks + components
	ExtraRow float64 // depth (m) consumed by non-ASIC parts (e.g. DRAM rows)
}

// DefaultLaneLength is the usable airflow-direction depth of a 1U server
// PCB after the fan wall and connectors.
const DefaultLaneLength = 0.60

// validateAir is Validate without the chip-count and die-area checks:
// everything it reads (fan, sink, lane depth, temperatures) is the same
// for any die, so SinkCandidates checks each candidate sink once.
func (l Lane) validateAir() error {
	if err := l.Fan.Validate(); err != nil {
		return err
	}
	if err := l.Sink.Validate(); err != nil {
		return err
	}
	used := float64(l.Chips)*l.Sink.Depth + l.ExtraRow
	if used > l.LaneLen+1e-12 {
		return fmt.Errorf("thermal: %d sinks of %.0f mm plus %.0f mm extras exceed %.0f mm lane",
			l.Chips, l.Sink.Depth*1e3, l.ExtraRow*1e3, l.LaneLen*1e3)
	}
	if l.MaxTjC <= l.InletC {
		return fmt.Errorf("thermal: junction limit %.0f °C must exceed inlet %.0f °C", l.MaxTjC, l.InletC)
	}
	return nil
}

// Airflow solves the fan curve against the lane's flow network: the sink
// path (all sinks in series) in parallel with the layout's bypass path.
// It returns the through-sink flow and the total fan flow in m³/s.
func (l Lane) Airflow() (sinkFlow, fanFlow float64) {
	p := l.Layout.params()

	sinkPathDrop := func(q float64) float64 {
		return float64(l.Chips) * l.Sink.PressureDrop(q)
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

// coeffWalk computes, one chip at a time from front to back, the
// per-chip coefficients k (K/W) such that the junction temperature of
// chip i at uniform per-chip power P is InletC + k[i]·P. The linearity
// of the whole network in power is what lets the explorer evaluate
// thermal feasibility in closed form: the per-chip power limit needs
// only the worst coefficient (worstCoeff), without a slice. The air
// terms are the same for every chip, so they are divided out once.
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

// worstCoeff is the largest coefficient (K/W) of a lane of chips in
// layout whose sinks present res and carry q (m³/s).
func worstCoeff(chips int, layout Layout, res Resistance, q float64) float64 {
	w := newCoeffWalk(chips, layout, res, q)
	worst := 0.0
	for i := 0; i < chips; i++ {
		if k := w.next(i); k > worst {
			worst = k
		}
	}
	return worst
}

// chipPowerLimit is the uniform per-chip power (W) at which the worst
// junction coefficient worst (K/W) reaches headroom kelvin above the
// inlet. Junction temperature is linear in power, Tj[i] = inlet +
// k[i]·P, so the largest coefficient sets the limit in closed form.
func chipPowerLimit(headroom, worst float64) float64 {
	if worst <= 0 || math.IsInf(worst, 1) {
		return 0
	}
	return headroom / worst
}
