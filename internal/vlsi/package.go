package vlsi

import "fmt"

// PackageModel prices a flip-chip BGA package. The paper: "Using Flip
// Chip, the packaging cost is a function of die size because of yield
// effects. Pin cost is based on the number of pins, which is set by power
// delivery requirements to the silicon. Our package cost model, based on
// input from industry veterans, suggests the per-chip assembly cost runs
// about $1."
type PackageModel struct {
	// AssemblyCost is the per-chip attach/assembly cost (~$1).
	AssemblyCost float64

	// SubstrateCostPerMM2 prices the organic substrate, which grows with
	// the die it must carry (plus margin).
	SubstrateCostPerMM2 float64

	// SubstrateMargin is the substrate-to-die area ratio.
	SubstrateMargin float64

	// PinCost is the cost in $ per pin (ball + routing layer share).
	PinCost float64

	// AmpsPerPowerPin is the current-carrying capacity assumed per
	// power/ground pin pair member.
	AmpsPerPowerPin float64

	// BaseSignalPins covers clocks, control, on-PCB network.
	BaseSignalPins int
}

// DefaultPackageModel returns the calibrated flip-chip model.
func DefaultPackageModel() PackageModel {
	return PackageModel{
		AssemblyCost:        1.00,
		SubstrateCostPerMM2: 0.015,
		SubstrateMargin:     1.3,
		PinCost:             0.008,
		AmpsPerPowerPin:     0.5,
		BaseSignalPins:      96,
	}
}

// Pins returns the total pin count for a chip drawing the given supply
// current in amps: power and ground pins sized by current, plus signal
// pins (base + any extra the design needs, e.g. DRAM interfaces or
// HyperTransport lanes).
func (m PackageModel) Pins(supplyAmps float64, extraSignalPins int) int {
	if supplyAmps < 0 {
		supplyAmps = 0
	}
	perPin := m.AmpsPerPowerPin
	if perPin <= 0 {
		perPin = 0.5
	}
	powerPins := int(supplyAmps/perPin + 0.9999)
	// Each power pin needs a ground return.
	return 2*powerPins + m.BaseSignalPins + extraSignalPins
}

// Cost returns the package cost in dollars for a die of the given area
// drawing the given current, with extra signal pins for I/O-heavy designs.
func (m PackageModel) Cost(dieAreaMM2, supplyAmps float64, extraSignalPins int) (float64, error) {
	if dieAreaMM2 <= 0 {
		return 0, fmt.Errorf("vlsi: package for non-positive die area %.1f mm²", dieAreaMM2)
	}
	pins := m.Pins(supplyAmps, extraSignalPins)
	substrate := m.SubstrateCostPerMM2 * dieAreaMM2 * m.SubstrateMargin
	return m.AssemblyCost + substrate + float64(pins)*m.PinCost, nil
}
