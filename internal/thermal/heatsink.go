package thermal

import (
	"fmt"
	"math"

	"asiccloud/internal/units"
)

func sqrt(x float64) float64 { return math.Sqrt(x) }

// HeatSink is a parallel-plate-fin heat sink with a solid spreader base,
// fins running parallel to the airflow (paper §6.3.2, Table 2).
type HeatSink struct {
	Width         float64 // across the airflow (m), <= lane width
	FinHeight     float64 // fin height above the base (m)
	Depth         float64 // along the airflow (m), <= 100 mm
	BaseThickness float64 // spreader thickness (m); the paper uses 3 mm
	FinThickness  float64 // (m); the paper uses 0.5 mm
	Gap           float64 // channel width between fins (m), >= 1 mm
	FinMaterial   Material
	BaseMaterial  Material
	TIM           TIM
}

// Limits from the paper's Table 2, used by the heat sink optimizer.
const (
	MaxSinkWidth  = 0.085  // m
	MaxSinkHeight = 0.035  // m, limited to 1U, includes 3 mm spreader
	MaxSinkDepth  = 0.100  // m
	MinGap        = 0.001  // m between two fins
	StdFin        = 0.0005 // m; the paper's standard 0.5 mm fin thickness
	StdBase       = 0.003  // m; the paper's standard 3 mm spreader base
)

// Validate reports whether the geometry is buildable within Table 2.
func (h HeatSink) Validate() error {
	switch {
	case h.Width <= 0 || h.FinHeight <= 0 || h.Depth <= 0:
		return fmt.Errorf("thermal: heat sink dimensions must be positive")
	case h.Width > MaxSinkWidth+1e-12:
		return fmt.Errorf("thermal: width %.1f mm exceeds %.0f mm", h.Width*1e3, MaxSinkWidth*1e3)
	case h.BaseThickness+h.FinHeight > MaxSinkHeight+1e-12:
		return fmt.Errorf("thermal: height %.1f mm exceeds %.0f mm (1U limit)",
			(h.BaseThickness+h.FinHeight)*1e3, MaxSinkHeight*1e3)
	case h.Depth > MaxSinkDepth+1e-12:
		return fmt.Errorf("thermal: depth %.1f mm exceeds %.0f mm", h.Depth*1e3, MaxSinkDepth*1e3)
	case h.Gap < MinGap-1e-12:
		return fmt.Errorf("thermal: fin gap %.2f mm below %.0f mm minimum", h.Gap*1e3, MinGap*1e3)
	case h.FinThickness <= 0:
		return fmt.Errorf("thermal: fin thickness must be positive")
	case h.FinCount() < 2:
		return fmt.Errorf("thermal: fewer than 2 fins fit in %.1f mm width", h.Width*1e3)
	}
	return nil
}

// FinCount is the number of fins that fit across the width at the
// configured pitch.
func (h HeatSink) FinCount() int {
	pitch := h.FinThickness + h.Gap
	if pitch <= 0 {
		return 0
	}
	n := int((h.Width+h.Gap)/pitch + 1e-9)
	if n < 0 {
		return 0
	}
	return n
}

// ChannelCount is the number of air channels between fins.
func (h HeatSink) ChannelCount() int {
	n := h.FinCount()
	if n < 2 {
		return 0
	}
	return n - 1
}

// OpenArea is the frontal area open to airflow in m².
func (h HeatSink) OpenArea() float64 {
	return float64(h.ChannelCount()) * h.Gap * h.FinHeight
}

// FinArea is the total convective surface area in m²: both sides of each
// fin plus the exposed base between fins.
func (h HeatSink) FinArea() float64 {
	fins := 2 * float64(h.FinCount()) * h.FinHeight * h.Depth
	base := float64(h.ChannelCount()) * h.Gap * h.Depth
	return fins + base
}

// hydraulicDiameter of one rectangular channel.
func (h HeatSink) hydraulicDiameter() float64 {
	a, b := h.Gap, h.FinHeight
	return 2 * a * b / (a + b)
}

// channelVelocity for a through-sink flow q (m³/s).
func (h HeatSink) channelVelocity(q float64) float64 {
	oa := h.OpenArea()
	if oa <= 0 {
		return 0
	}
	return q / oa
}

// PressureDrop returns the static pressure loss (Pa) of flow q through the
// sink: developed channel friction plus entrance/exit contraction losses.
// Deeper sinks and narrower gaps cost more pressure — the effect that
// drives the optimizer toward shallower sinks as chips per lane grow.
func (h HeatSink) PressureDrop(q float64) float64 {
	if q <= 0 {
		return 0
	}
	v := h.channelVelocity(q)
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

// Resistance is the thermal resistance breakdown from junction to the air
// entering the sink, for through-sink flow q and a die of dieAreaMM2.
type Resistance struct {
	TIM        float64 // die → spreader interface (K/W)
	Spreading  float64 // constriction in the spreader (K/W)
	Convection float64 // fins → air (K/W)
}

// Total junction-to-inlet-air resistance in K/W.
func (r Resistance) Total() float64 { return r.TIM + r.Spreading + r.Convection }

// Resistance computes the resistance network at flow q for the given die.
// The TIM term is inversely proportional to die area — the reason the
// paper's Figure 6 shows small dies unable to use a big sink, and the
// reason more total silicon per lane can dissipate more total heat.
func (h HeatSink) Resistance(q, dieAreaMM2 float64) Resistance {
	rTIM := h.TIM.Resistance(dieAreaMM2)

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

	// Convection: channel Nusselt number with a developing-flow
	// enhancement, fin efficiency from the standard tanh model.
	v := h.channelVelocity(q)
	dh := h.hydraulicDiameter()
	var hConv float64
	if v > 0 {
		re := v * dh / units.AirViscosity
		var nu float64
		if re < 2300 {
			// Fully developed parallel-plate Nu plus entrance-region
			// augmentation (Hausen-style).
			lStar := h.Depth / (dh * re * units.AirPrandtl)
			nu = 7.54 + 0.03/(lStar+0.016)
		} else {
			nu = 0.023 * math.Pow(re, 0.8) * math.Pow(units.AirPrandtl, 0.4)
		}
		hConv = nu * units.AirConductivity / dh
	}
	var rConv float64
	if hConv > 0 {
		m := math.Sqrt(2 * hConv / (h.FinMaterial.Conductivity * h.FinThickness))
		mH := m * h.FinHeight
		eta := 1.0
		if mH > 1e-9 {
			eta = math.Tanh(mH) / mH
		}
		finArea := 2 * float64(h.FinCount()) * h.FinHeight * h.Depth
		baseArea := float64(h.ChannelCount()) * h.Gap * h.Depth
		rConv = 1 / (hConv * (eta*finArea + baseArea))
	} else {
		rConv = math.Inf(1)
	}

	return Resistance{TIM: rTIM, Spreading: rSpread, Convection: rConv}
}

// Mass in kg of the sink (base plate plus fins).
func (h HeatSink) Mass() float64 {
	base := h.Width * h.Depth * h.BaseThickness * h.BaseMaterial.Density
	fins := float64(h.FinCount()) * h.FinThickness * h.FinHeight * h.Depth * h.FinMaterial.Density
	return base + fins
}

// Cost estimates the manufactured sink cost: material plus extrusion and
// per-fin machining. The paper relies on "wide arrays of low-cost
// heatsinks", so typical values land in the $1–6 range.
func (h HeatSink) Cost() float64 {
	material := h.Width*h.Depth*h.BaseThickness*h.BaseMaterial.Density*h.BaseMaterial.CostPerKG +
		float64(h.FinCount())*h.FinThickness*h.FinHeight*h.Depth*h.FinMaterial.Density*h.FinMaterial.CostPerKG
	const manufacturing = 0.80
	return material + manufacturing
}
