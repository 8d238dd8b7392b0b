package vlsi

import (
	"fmt"
	"math"
)

// Process describes a fabrication node's economic parameters: everything
// needed to turn a die area into a manufactured cost.
type Process struct {
	// Name, e.g. "UMC 28nm".
	Name string

	// WaferDiameter in mm (300 for every node the paper considers).
	WaferDiameter float64

	// WaferCost is the foundry price of one processed wafer in dollars.
	WaferCost float64

	// DefectDensity D0 in defects per cm².
	DefectDensity float64

	// Clustering is the dimensionless negative-binomial clustering
	// parameter alpha.
	Clustering float64

	// MaxDieArea is the manufacturable reticle/assembly limit in mm².
	// The paper caps dies at 600 mm².
	MaxDieArea float64

	// MaskCost is the full mask-set NRE in dollars (~$1.5M at 28nm).
	MaskCost float64
}

// UMC28nm is the process used for every design in the paper, calibrated so
// that the Bitcoin server silicon costs land on the paper's Table 3 (see
// DESIGN.md "Model calibration anchors").
func UMC28nm() Process {
	return Process{
		Name:          "UMC 28nm",
		WaferDiameter: 300,
		WaferCost:     3700,
		DefectDensity: 0.22,
		Clustering:    2,
		MaxDieArea:    600,
		MaskCost:      1.5e6,
	}
}

// TSMC40nm is an older node offered as the paper's suggested lower-NRE
// alternative ("older nodes such as 40 nm ... with half the mask cost and
// only a small difference in performance and energy efficiency").
func TSMC40nm() Process {
	return Process{
		Name:          "TSMC 40nm",
		WaferDiameter: 300,
		WaferCost:     2600,
		DefectDensity: 0.18,
		Clustering:    2,
		MaxDieArea:    600,
		MaskCost:      0.75e6,
	}
}

// Validate reports whether the process parameters are usable. Only the
// error branches allocate, and a process that fails validation never
// enters a sweep, so the happy path is allocation-free per call.
func (p Process) Validate() error {
	switch {
	case p.WaferDiameter <= 0:
		return fmt.Errorf("vlsi: %s: wafer diameter must be positive", p.Name)
	case p.WaferCost <= 0:
		return fmt.Errorf("vlsi: %s: wafer cost must be positive", p.Name)
	case p.DefectDensity < 0:
		return fmt.Errorf("vlsi: %s: defect density must be >= 0", p.Name)
	case p.Clustering <= 0:
		return fmt.Errorf("vlsi: %s: clustering alpha must be positive", p.Name)
	case p.MaxDieArea <= 0:
		return fmt.Errorf("vlsi: %s: max die area must be positive", p.Name)
	}
	return nil
}

// Yield returns the negative-binomial die yield for a die of the given
// area in mm²: Y = (1 + A·D0/alpha)^(-alpha) with A in cm².
func (p Process) Yield(dieAreaMM2 float64) float64 {
	if dieAreaMM2 <= 0 {
		return 1
	}
	acm2 := dieAreaMM2 / 100
	return math.Pow(1+acm2*p.DefectDensity/p.Clustering, -p.Clustering)
}

// DiesPerWafer returns the gross die count for a die of the given area in
// mm², using the standard circular-wafer edge-loss approximation.
func (p Process) DiesPerWafer(dieAreaMM2 float64) float64 {
	if dieAreaMM2 <= 0 {
		return 0
	}
	r := p.WaferDiameter / 2
	gross := math.Pi*r*r/dieAreaMM2 - math.Pi*p.WaferDiameter/math.Sqrt(2*dieAreaMM2)
	if gross < 0 {
		return 0
	}
	return gross
}

// DieCost returns the manufactured cost of one good die of the given area
// in mm², i.e. wafer cost divided by good dies per wafer. It returns an
// error for dies above the manufacturable limit or too large to fit the
// wafer.
func (p Process) DieCost(dieAreaMM2 float64) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if dieAreaMM2 <= 0 {
		return 0, fmt.Errorf("vlsi: die area %.1f mm² must be positive", dieAreaMM2)
	}
	if dieAreaMM2 > p.MaxDieArea {
		return 0, fmt.Errorf("vlsi: die area %.1f mm² exceeds %s limit of %.0f mm²", dieAreaMM2, p.Name, p.MaxDieArea)
	}
	gross := p.DiesPerWafer(dieAreaMM2)
	if gross < 1 {
		return 0, fmt.Errorf("vlsi: die area %.1f mm² does not fit on a %.0f mm wafer", dieAreaMM2, p.WaferDiameter)
	}
	good := gross * p.Yield(dieAreaMM2)
	return p.WaferCost / good, nil
}
