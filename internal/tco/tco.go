// Package tco implements the paper's refined Barroso-style total cost of
// ownership model (paper §7, "TCO-Optimal Servers"): the datacenter-level
// weighting that turns the two-metric Pareto frontier ($ per op/s versus
// W per op/s) into a single scalar and thereby selects the TCO-optimal
// design. "TCO analysis incorporates the datacenter-level constraints
// including the cost of power delivery inside the datacenter, land,
// depreciation, interest, and the cost of energy itself."
//
// The coefficients are calibrated against the paper's Tables 3-6, which
// they reproduce to within ±0.3% (see DESIGN.md).
package tco

import (
	"fmt"
	"math"

	"asiccloud/internal/units"
)

// Model holds the datacenter economics.
type Model struct {
	// ServerMarkup covers integration, shipping and installation on top
	// of the bill of materials; a dimensionless, non-negative multiplier
	// on it (1.05 in the calibrated model).
	ServerMarkup float64

	// InterestRate is the annual cost of capital; amortized purchases
	// accrue interest on the declining balance (≈ rate · life / 2).
	InterestRate float64

	// LifetimeYears is the hardware amortization period. ASIC servers
	// turn over in 1.5 years in the paper; CPU/GPU servers in 3.
	LifetimeYears float64

	// DCCapexPerWattYear is datacenter construction cost (power
	// provisioning, cooling, land) amortized per wall watt per year.
	DCCapexPerWattYear float64

	// DCAmortYears is the facility amortization period in years, used
	// for the interest term.
	DCAmortYears float64

	// ElectricityPerKWh is the energy price ($0.06 in the paper —
	// cheap-energy sites like Iceland or the Republic of Georgia).
	ElectricityPerKWh float64

	// PUE is the power usage effectiveness multiplier on server power.
	PUE float64
}

// Default returns the calibrated ASIC Cloud model (1.5-year server life).
func Default() Model {
	return Model{
		ServerMarkup:       1.05,
		InterestRate:       0.082,
		LifetimeYears:      1.5,
		DCCapexPerWattYear: 1.6027,
		DCAmortYears:       7.1,
		ElectricityPerKWh:  0.06,
		PUE:                1.1,
	}
}

// ForLifetime returns the default model with a different hardware
// lifetime (3 years for the CPU/GPU baselines of Table 7).
func ForLifetime(years float64) Model {
	m := Default()
	m.LifetimeYears = years
	return m
}

// Validate reports whether the model is usable: every field finite, a
// positive lifetime, a PUE of at least 1 and no negative markup, rate,
// price or period. Zero markup, interest and electricity are valid.
// Both Coefficients of a valid model are then non-negative, so TCO
// never falls as cost or watts rise, and the TCO optimum lies on the
// ($ per op/s, W per op/s) Pareto frontier.
func (m Model) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"server markup", m.ServerMarkup},
		{"interest rate", m.InterestRate},
		{"lifetime", m.LifetimeYears},
		{"datacenter capex", m.DCCapexPerWattYear},
		{"datacenter amortization", m.DCAmortYears},
		{"electricity price", m.ElectricityPerKWh},
		{"PUE", m.PUE},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("tco: %s %v is not finite", f.name, f.v)
		}
	}
	if m.LifetimeYears <= 0 {
		return fmt.Errorf("tco: lifetime must be positive")
	}
	if m.PUE < 1 {
		return fmt.Errorf("tco: PUE %v below 1 is unphysical", m.PUE)
	}
	if m.ServerMarkup < 0 || m.InterestRate < 0 || m.DCCapexPerWattYear < 0 ||
		m.DCAmortYears < 0 || m.ElectricityPerKWh < 0 {
		return fmt.Errorf("tco: negative cost parameter")
	}
	return nil
}

// Breakdown itemizes TCO over the hardware lifetime. All values are in
// dollars per unit performance when fed per-op/s inputs, or absolute
// dollars when fed whole-server cost and wall power.
type Breakdown struct {
	ServerAmort   float64 // $ of server capital, with markup
	AmortInterest float64 // $ of interest on server capital
	DCCapex       float64 // $ of datacenter construction share
	Electricity   float64 // $ of energy over the lifetime, with PUE
	DCInterest    float64 // $ of interest on the datacenter share
}

// Total is the full TCO.
func (b Breakdown) Total() float64 {
	return b.ServerAmort + b.AmortInterest + b.DCCapex + b.Electricity + b.DCInterest
}

// Of computes the TCO breakdown for hardware costing serverCost dollars
// and drawing watts of wall power, over the model's lifetime. Pass
// per-performance inputs ($ per op/s, W per op/s) to obtain TCO per op/s,
// the paper's headline metric.
func (m Model) Of(serverCost, watts float64) Breakdown {
	amort := serverCost * m.ServerMarkup
	hours := m.LifetimeYears * units.HoursPerYear
	dcCapex := m.DCCapexPerWattYear * m.LifetimeYears * watts
	return Breakdown{
		ServerAmort:   amort,
		AmortInterest: amort * m.InterestRate * m.LifetimeYears / 2,
		DCCapex:       dcCapex,
		Electricity:   watts * m.PUE * hours * m.ElectricityPerKWh / units.WattsPerKilowatt,
		DCInterest:    dcCapex * m.InterestRate * m.DCAmortYears / 2,
	}
}

// Coefficients returns the linear weights (a, b) such that
// TCO = a·serverCost + b·watts. These are the slopes of the iso-TCO
// lines drawn across the paper's Pareto plots (Figures 12, 14, 15, 17):
// "diagonal lines represent equal TCO ... with min TCO at lower left".
func (m Model) Coefficients() (costWeight, wattWeight float64) {
	b := m.Of(1, 0)
	w := m.Of(0, 1)
	return b.Total(), w.Total()
}

// IsoTCOLine returns, for a given TCO level, the cost intercept and the
// slope d(cost)/d(watts) of the equal-TCO line in the (watts, cost)
// plane — useful for plotting over a Pareto frontier.
func (m Model) IsoTCOLine(tcoLevel float64) (costIntercept, slope float64) {
	a, b := m.Coefficients()
	return tcoLevel / a, -b / a
}
