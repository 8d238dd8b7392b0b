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

// hydraulicDiameter of one rectangular channel.
func (h HeatSink) hydraulicDiameter() float64 {
	a, b := h.Gap, h.FinHeight
	return 2 * a * b / (a + b)
}

// channel holds the terms of the through-sink flow that read the sink
// but not the flow, so a caller evaluating many flows through one sink
// (an airflow solve's bisection) computes them once.
type channel struct {
	openArea   float64 // frontal area open to airflow (m²)
	dh         float64 // hydraulic diameter of one channel (m)
	fRe        float64 // laminar friction factor times Reynolds number
	depthPerDh float64 // sink depth over hydraulic diameter
}

func (h HeatSink) channel() channel {
	dh := h.hydraulicDiameter()
	return channel{
		openArea: h.OpenArea(),
		dh:       dh,
		// Laminar parallel-plate friction, f·Re ≈ 96 for high aspect
		// ratio channels; use 64-96 blend on aspect ratio.
		fRe:        96.0 - 32.0*(h.Gap/h.FinHeight),
		depthPerDh: h.Depth / dh,
	}
}

// velocity is the channel air speed (m/s) for a through-sink flow q
// (m³/s). A NaN open area still divides.
func (c channel) velocity(q float64) float64 {
	if c.openArea <= 0 {
		return 0
	}
	return q / c.openArea
}

// pressureDrop returns the static pressure loss (Pa) of flow q (m³/s)
// through the sink: developed channel friction plus entrance/exit
// contraction losses. Deeper sinks and narrower gaps cost more pressure
// — the effect that drives the optimizer toward shallower sinks as
// chips per lane grow.
func (c channel) pressureDrop(q float64) float64 {
	if q <= 0 {
		return 0
	}
	v := c.velocity(q)
	re := v * c.dh / units.AirViscosity
	var f float64
	if re < 2300 {
		if re < 1 {
			re = 1
		}
		f = c.fRe / re
	} else {
		f = 0.316 / math.Pow(re, 0.25) // Blasius
	}
	dyn := units.AirDensity * v * v / 2
	friction := f * c.depthPerDh * dyn
	// Contraction/expansion loss at the sink faces. In a ducted lane the
	// sinks nearly abut, so the loss per sink is small.
	const kEntranceExit = 0.15
	return friction + kEntranceExit*dyn
}

// radius is the radius (m) of the disc of areaM2 (m²), the equivalent
// circle the spreading formula uses for the die and the footprint.
func radius(areaM2 float64) float64 { return math.Sqrt(areaM2 / math.Pi) }

// spreadTerms are the parts of the spreading resistance that read the
// die and the sink's footprint but no spreader material, so a search
// that tries two spreaders on one footprint computes them once.
type spreadTerms struct {
	under  bool    // the die is smaller than the footprint; else nothing spreads
	r1     float64 // die radius (m)
	baseM2 float64 // footprint area (m²)
	pw     float64 // (1 - r1/r2)^1.5, the constriction factor
}

// constriction gathers the spreadTerms of a die of dieM2 (m²) and
// radius r1 (m) on a footprint of baseM2 (m²) and radius r2 (m).
func constriction(dieM2, r1, baseM2, r2 float64) spreadTerms {
	if !(dieM2 < baseM2) {
		return spreadTerms{}
	}
	return spreadTerms{under: true, r1: r1, baseM2: baseM2, pw: math.Pow(1-r1/r2, 1.5)}
}

// resistance finishes the spreading resistance (K/W) for a spreader of
// conductivity k (W/(m·K)) and thickness (m): the maximum-constriction
// approximation R = (1 - r1/r2)^1.5 / (pi * k * r1) plus
// one-dimensional conduction through the base thickness.
func (s spreadTerms) resistance(k, thickness float64) float64 {
	var rSpread float64
	if s.under {
		rSpread = s.pw / (math.Pi * k * s.r1)
		rSpread += thickness / (k * s.baseM2)
	}
	return rSpread
}

// convection is the fin-to-air resistance (K/W) at through-sink flow q
// (m³/s); it reads the fins and the flow but neither the die nor the
// spreader, which is what lets SinkCandidates compute it once per sink.
func (h HeatSink) convection(q float64) float64 {
	// Convection: channel Nusselt number with a developing-flow
	// enhancement, fin efficiency from the standard tanh model.
	ch := h.channel()
	v, dh := ch.velocity(q), ch.dh
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
	rConv := math.Inf(1)
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
	}
	return rConv
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
