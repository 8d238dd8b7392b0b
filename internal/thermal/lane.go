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

// tempCoeffs returns per-chip coefficients k such that the junction
// temperature of chip i at uniform per-chip power P is InletC + k[i]·P,
// with q (m³/s) flowing through the sinks. The linearity of the whole
// network in power is what lets the explorer evaluate thermal
// feasibility in closed form.
func (l Lane) tempCoeffs(q float64) []float64 {
	p := l.Layout.params()
	res := l.Sink.Resistance(q, l.DieArea)
	rWorst := res.TIM + res.Spreading + res.Convection/p.uniformity

	heatCap := units.AirDensity * units.AirSpecificHeat * q // W/K
	coeffs := make([]float64, l.Chips)
	upstream := 0.0 // accumulated mean air rise per watt-per-chip
	for i := 0; i < l.Chips; i++ {
		r := res.Total()
		if i == l.Chips-1 {
			r = rWorst
		}
		extra := math.Inf(1)
		if heatCap > 0 {
			const plume = 1.5
			extra = 1 / (2 * heatCap)
			if i > 0 {
				extra += plume / heatCap
			}
		}
		coeffs[i] = upstream + extra + r
		if heatCap > 0 {
			upstream += 1 / heatCap
		} else {
			upstream = math.Inf(1)
		}
	}
	return coeffs
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
	coeffs := l.tempCoeffs(q)
	temps := make([]float64, len(coeffs))
	for i, k := range coeffs {
		temps[i] = l.InletC + powerPerChip*k
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

// maxChipPowerAt is MaxChipPower for a validated lane whose sinks carry
// q (m³/s), the through-sink flow Airflow solves for. OptimizeSink calls
// it directly to score several spreader materials at one solved flow.
func (l Lane) maxChipPowerAt(q float64) float64 {
	// Junction temperature is linear in power: Tj[i] = inlet + k[i]·P,
	// so the limit is set by the largest coefficient in closed form.
	worst := 0.0
	for _, k := range l.tempCoeffs(q) {
		if k > worst {
			worst = k
		}
	}
	if worst <= 0 || math.IsInf(worst, 1) {
		return 0
	}
	return (l.MaxTjC - l.InletC) / worst
}

// MaxLanePower is the total dissipation capacity of the lane.
func (l Lane) MaxLanePower() float64 {
	return l.MaxChipPower() * float64(l.Chips)
}
