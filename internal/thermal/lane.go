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

	// The sink's channel terms are the same at every flow the
	// bisections try, so they are computed once per solve.
	ch, chips := l.Sink.channel(), float64(l.Chips)
	sinkPathDrop := func(q float64) float64 {
		return chips * ch.pressureDrop(q)
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

// lastChipAir is the air's share (K/W) of the last chip's junction
// coefficient in a lane of chips whose sinks carry q (m³/s); at uniform
// per-chip power P, chip i's junction sits at InletC + k[i]·P. The
// share is the mean air rise every chip ahead adds, plus what the
// chip's own fins see above that mean: half its own rise (fins see the
// mean of inlet and exit) and, behind another chip, the unmixed plume
// of the one ahead. No die enters it, so a sink search computes it once
// per candidate sink; its additions are a front-to-back walk's, in the
// walk's order.
func lastChipAir(chips int, q float64) float64 {
	first, rest, step := math.Inf(1), math.Inf(1), math.Inf(1)
	heatCap := units.AirDensity * units.AirSpecificHeat * q // W/K
	if heatCap > 0 {
		const plume = 1.5
		first = 1 / (2 * heatCap)
		rest = first + plume/heatCap
		step = 1 / heatCap
	}
	upstream := 0.0
	for i := 0; i < chips-1; i++ {
		upstream += step
	}
	if chips == 1 {
		return upstream + first
	}
	return upstream + rest
}

// worstCoeff is the largest junction coefficient (K/W) of a lane, given
// the last chip's air terms lastAir (lastChipAir) and rWorst, its K/W
// from junction to local air with the layout's uniformity derating on
// the convection. It is the last chip's coefficient lastAir + rWorst,
// or 0 when that is not positive (NaN included), bit for bit the
// maximum over a walk of every chip's coefficient: each chip ahead
// breathes an upstream rise no larger (every step adds a non-negative
// rise, and rounded addition is monotone), sees a first-chip or plume
// term no larger (the plume only adds), and a resistance no larger
// (the derating divides the convection by a uniformity of at most 1).
// A NaN die makes every coefficient NaN, for which the walk also
// returns 0.
func worstCoeff(lastAir, rWorst float64) float64 {
	if k := lastAir + rWorst; k > 0 {
		return k
	}
	return 0
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
