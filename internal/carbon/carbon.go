package carbon

import (
	"fmt"
	"math"

	"asiccloud/internal/units"
	"asiccloud/internal/vlsi"
)

// Model holds the emission factors of a datacenter's carbon footprint,
// split the way the TCO model splits money: embodied terms paid once
// per manufactured part, and an operational term metered per kWh.
type Model struct {
	// WaferKgCO2e is the embodied emission of one processed wafer in
	// kg CO2e: fab energy, process gases and upstream materials. The
	// per-die share divides this by good dies per wafer, charging
	// yield loss to carbon exactly as vlsi.Process.DieCost charges it
	// to dollars.
	WaferKgCO2e float64

	// PackageKgCO2e is the embodied emission of packaging one chip in
	// kg CO2e (substrate, bumping, assembly and test).
	PackageKgCO2e float64

	// HeatSinkKgCO2e is the embodied emission of one chip's share of
	// the cooling hardware in kg CO2e (heat sink metal for forced air,
	// the tank/condenser share under immersion).
	HeatSinkKgCO2e float64

	// BoardKgCO2e is the per-server embodied emission of the PCB,
	// power supplies and chassis in kg CO2e.
	BoardKgCO2e float64

	// GridGCO2ePerKWh is the operational grid carbon intensity in
	// g CO2e per kWh of delivered energy. Zero models a fully
	// decarbonized (hydro/nuclear) grid and is valid.
	GridGCO2ePerKWh float64

	// PUE is the power usage effectiveness multiplier on server power,
	// dimensionless and >= 1.
	PUE float64

	// LifetimeYears is the amortization period in years over which
	// operational energy accumulates — the same window the TCO model
	// amortizes hardware over.
	LifetimeYears float64

	// Utilization is the average duty factor in (0, 1], dimensionless:
	// the fraction of the lifetime the server spends doing work. It
	// scales the operational term only; embodied carbon is sunk at
	// manufacture regardless of use.
	Utilization float64
}

// Default returns the calibrated ASIC Cloud carbon model: a 28nm-class
// wafer burden in the band the GreenFPGA/ACT studies publish
// (~1.35 kg CO2e per cm² of processed silicon, ≈950 kg per 300 mm
// wafer), per-chip packaging and heat-sink shares, a board/PSU/chassis
// term, the IEA world-average grid intensity, and the paper's 1.5-year
// ASIC server turnover at PUE 1.1 (matching tco.Default).
func Default() Model {
	return Model{
		WaferKgCO2e:     950,
		PackageKgCO2e:   0.15,
		HeatSinkKgCO2e:  1.1,
		BoardKgCO2e:     75,
		GridGCO2ePerKWh: 475,
		PUE:             1.1,
		LifetimeYears:   1.5,
		Utilization:     1.0,
	}
}

// Validate reports whether the model is usable. NaN anywhere is
// rejected: a NaN emission factor would silently poison every carbon
// objective in the sweep instead of failing one request loudly.
func (m Model) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"WaferKgCO2e", m.WaferKgCO2e},
		{"PackageKgCO2e", m.PackageKgCO2e},
		{"HeatSinkKgCO2e", m.HeatSinkKgCO2e},
		{"BoardKgCO2e", m.BoardKgCO2e},
		{"GridGCO2ePerKWh", m.GridGCO2ePerKWh},
		{"PUE", m.PUE},
		{"LifetimeYears", m.LifetimeYears},
		{"Utilization", m.Utilization},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("carbon: %s must be finite, got %v", f.name, f.v)
		}
	}
	if m.WaferKgCO2e < 0 || m.PackageKgCO2e < 0 || m.HeatSinkKgCO2e < 0 || m.BoardKgCO2e < 0 {
		return fmt.Errorf("carbon: negative embodied emission factor")
	}
	if m.GridGCO2ePerKWh < 0 {
		return fmt.Errorf("carbon: grid intensity %v g CO2e/kWh must be >= 0", m.GridGCO2ePerKWh)
	}
	if m.PUE < 1 {
		return fmt.Errorf("carbon: PUE %v below 1 is unphysical", m.PUE)
	}
	if m.LifetimeYears <= 0 {
		return fmt.Errorf("carbon: lifetime must be positive")
	}
	if m.Utilization <= 0 || m.Utilization > 1 {
		return fmt.Errorf("carbon: utilization %v must be in (0, 1]", m.Utilization)
	}
	return nil
}

// EmbodiedServerKg returns the embodied emission of one server in
// kg CO2e: chips of dieAreaMM2 silicon each (wafer share divided by
// yielded good dies, mirroring vlsi.Process.DieCost), plus per-chip
// packaging and heat-sink terms and the per-server board term. A die
// too large to yield any good dies returns +Inf rather than an error —
// such geometries are pruned by the evaluation pipeline before any
// carbon number is reported, and +Inf keeps this callable from the
// sweep's allocation-free hot path.
func (m Model) EmbodiedServerKg(p vlsi.Process, dieAreaMM2 float64, chips int) float64 {
	good := p.DiesPerWafer(dieAreaMM2) * p.Yield(dieAreaMM2)
	siliconKg := math.Inf(1)
	if good > 0 {
		siliconKg = m.WaferKgCO2e / good
	}
	perChip := siliconKg + m.PackageKgCO2e + m.HeatSinkKgCO2e
	return float64(chips)*perChip + m.BoardKgCO2e
}

// OperationalKg returns the operational emission in kg CO2e of drawing
// watts of wall power over the model's lifetime at its utilization:
// watts × PUE × utilization × lifetime hours × grid intensity.
func (m Model) OperationalKg(watts float64) float64 {
	kwh := watts * m.PUE * m.Utilization * m.LifetimeYears * units.HoursPerYear /
		units.WattsPerKilowatt
	return units.GToKg(kwh * m.GridGCO2ePerKWh)
}

// Breakdown splits a design's carbon footprint into the two terms of
// the model. Fed per-performance inputs it is kg CO2e per op/s of
// capacity over the lifetime — the carbon analogue of TCO per op/s.
type Breakdown struct {
	// EmbodiedKg is the manufacturing share in kg CO2e.
	EmbodiedKg float64 `json:"embodied_kg"`
	// OperationalKg is the lifetime-energy share in kg CO2e.
	OperationalKg float64 `json:"operational_kg"`
}

// Total is the full carbon footprint in kg CO2e.
func (b Breakdown) Total() float64 { return b.EmbodiedKg + b.OperationalKg }

// Of computes the per-unit-performance carbon breakdown of a server
// with embodied emission embodiedServerKg (kg CO2e, EmbodiedServerKg's
// output), throughput perf (op/s), and wall power wallWatts (W). This
// runs once per feasible design point inside the sweep's hot loop and
// is allocation-free.
func (m Model) Of(embodiedServerKg, perf, wallWatts float64) Breakdown {
	return Breakdown{
		EmbodiedKg:    embodiedServerKg / perf,
		OperationalKg: m.OperationalKg(wallWatts / perf),
	}
}
