// Package power models the ASIC server's power delivery system: the
// 208 V→12 V power supply unit, the 12 V→core-voltage DC/DC converter
// array, and the voltage-stacking alternative some Bitcoin clouds use to
// eliminate the converters entirely (paper §5, §7).
package power

import "fmt"

// PSU is the server power supply (208 V AC to 12 V DC).
type PSU struct {
	Efficiency float64 // fraction of wall power delivered at 12 V
	CostPerW   float64 // $ per watt of delivered capacity
}

// DefaultPSU matches the paper's server model: 90% efficiency at $0.13
// per watt.
func DefaultPSU() PSU {
	return PSU{Efficiency: 0.90, CostPerW: 0.13}
}

// WallPower returns the AC draw required to deliver dcPower at 12 V.
func (p PSU) WallPower(dcPower float64) float64 {
	if p.Efficiency <= 0 {
		return 0
	}
	return dcPower / p.Efficiency
}

// Cost prices a PSU sized for the given wall power.
func (p PSU) Cost(wallPower float64) float64 {
	if wallPower < 0 {
		wallPower = 0
	}
	return wallPower * p.CostPerW
}

// DCDC is the on-board step-down converter array (12 V to the 0.4–1.5 V
// ASIC core rails). "One DC/DC converter is required for every 30A used
// by the system."
type DCDC struct {
	Efficiency  float64 // fraction of input power delivered to the rail
	CostPerAmp  float64 // $ per amp of output current capacity
	AmpsPerUnit float64 // output amps per converter phase
}

// DefaultDCDC matches the paper: 90% efficiency, $0.33 per amp, 30 A
// per converter.
func DefaultDCDC() DCDC {
	return DCDC{Efficiency: 0.90, CostPerAmp: 0.33, AmpsPerUnit: 30}
}

// Units returns the number of converter phases needed for the given
// output current.
func (d DCDC) Units(outputAmps float64) int {
	if outputAmps <= 0 {
		return 0
	}
	per := d.AmpsPerUnit
	if per <= 0 {
		per = 30
	}
	n := int(outputAmps / per)
	if float64(n)*per < outputAmps-1e-9 {
		n++
	}
	return n
}

// InputPower returns the 12 V power drawn to deliver railPower to the
// chips.
func (d DCDC) InputPower(railPower float64) float64 {
	if d.Efficiency <= 0 {
		return 0
	}
	return railPower / d.Efficiency
}

// Cost prices the converter array for the given output current.
func (d DCDC) Cost(outputAmps float64) float64 {
	if outputAmps < 0 {
		outputAmps = 0
	}
	return outputAmps * d.CostPerAmp
}

// Rail is one chip supply voltage domain and its current demand.
type Rail struct {
	Name    string
	Voltage float64 // V
	Power   float64 // W drawn by the chips on this rail
}

// Amps is the rail's current draw.
func (r Rail) Amps() float64 {
	if r.Voltage <= 0 {
		return 0
	}
	return r.Power / r.Voltage
}

// Delivery summarizes a server's complete power chain.
type Delivery struct {
	RailPower  float64 // W delivered to silicon
	DCDCInput  float64 // W drawn from the 12 V bus by converters
	OtherLoad  float64 // W of 12 V loads that skip conversion (fans...)
	WallPower  float64 // W drawn from the 208 V feed
	DCDCUnits  int
	DCDCAmps   float64 // A of converter output current capacity
	DCDCCost   float64 // $ for all DC-DC converters
	PSUCost    float64 // $ for the 208 V power supplies
	Efficiency float64 // silicon watts per wall watt
}

// Plan sizes the delivery chain for a set of chip rails plus direct 12 V
// loads (fans, control processor). Stacked rails (see Stack) should be
// converted to their equivalent single rail before calling Plan.
func Plan(psu PSU, dcdc DCDC, rails []Rail, twelveVoltLoads float64) (Delivery, error) {
	var railPower, amps float64
	for _, r := range rails {
		if r.Voltage <= 0 {
			return Delivery{}, fmt.Errorf("power: rail %q has non-positive voltage", r.Name)
		}
		if r.Power < 0 {
			return Delivery{}, fmt.Errorf("power: rail %q has negative power", r.Name)
		}
		railPower += r.Power
		amps += r.Amps()
	}
	if twelveVoltLoads < 0 {
		return Delivery{}, fmt.Errorf("power: negative 12 V load")
	}
	dcdcIn := dcdc.InputPower(railPower)
	wall := psu.WallPower(dcdcIn + twelveVoltLoads)
	d := Delivery{
		RailPower: railPower,
		DCDCInput: dcdcIn,
		OtherLoad: twelveVoltLoads,
		WallPower: wall,
		DCDCUnits: dcdc.Units(amps),
		DCDCAmps:  amps,
		DCDCCost:  dcdc.Cost(amps),
		PSUCost:   psu.Cost(wall),
	}
	if wall > 0 {
		d.Efficiency = railPower / wall
	}
	return d, nil
}

// Stack models voltage stacking: chips serially chained so their supplies
// sum to the 12 V bus, eliminating DC/DC converters (paper §7, "Voltage
// Stacking"). It returns the number of chips per stack and the effective
// rail. Stacking requires the bus voltage to be an integer multiple of
// the chip voltage; the chip voltage is nudged down to the nearest
// divisor and returned.
type StackPlan struct {
	ChipsPerStack int
	ChipVoltage   float64 // actual per-chip voltage after fitting
	BalanceCost   float64 // per-chip cost of charge-balancing regulation
}

// PlanStack fits a stack of chips at approximately chipVoltage onto a
// busVoltage rail. A small per-chip balancing cost replaces the DC/DC
// array.
func PlanStack(busVoltage, chipVoltage float64) (StackPlan, error) {
	if busVoltage <= 0 || chipVoltage <= 0 {
		return StackPlan{}, fmt.Errorf("power: stack voltages must be positive")
	}
	if chipVoltage > busVoltage {
		return StackPlan{}, fmt.Errorf("power: chip voltage %.2f exceeds bus %.2f", chipVoltage, busVoltage)
	}
	n := int(busVoltage / chipVoltage)
	if n < 1 {
		n = 1
	}
	return StackPlan{
		ChipsPerStack: n,
		ChipVoltage:   busVoltage / float64(n),
		BalanceCost:   0.75,
	}, nil
}

// PlanStacked sizes the delivery chain when chips are voltage stacked:
// the PSU feeds stacks directly and only the balancing circuitry is
// charged instead of converters. chipCount is the total number of chips.
func PlanStacked(psu PSU, sp StackPlan, railPower float64, chipCount int, twelveVoltLoads float64) (Delivery, error) {
	if railPower < 0 || twelveVoltLoads < 0 {
		return Delivery{}, fmt.Errorf("power: negative power")
	}
	if chipCount <= 0 {
		return Delivery{}, fmt.Errorf("power: stacked plan needs chips")
	}
	// Stacks connect straight to the 12 V bus: no conversion loss beyond
	// a small balancing overhead.
	const balanceLoss = 0.02
	busIn := railPower * (1 + balanceLoss)
	wall := psu.WallPower(busIn + twelveVoltLoads)
	d := Delivery{
		RailPower: railPower,
		DCDCInput: busIn,
		OtherLoad: twelveVoltLoads,
		WallPower: wall,
		DCDCCost:  float64(chipCount) * sp.BalanceCost,
		PSUCost:   psu.Cost(wall),
	}
	if wall > 0 {
		d.Efficiency = railPower / wall
	}
	return d, nil
}
