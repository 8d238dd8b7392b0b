package vlsi

import (
	"fmt"
	"math"
)

// Binning models process variation: manufactured chips spread around the
// nominal frequency, and a vendor must decide what to promise. The paper
// (§3) explains why merged ASIC development and cloud operation won:
// "meeting an exact target for an ASIC chip is a challenging process,
// and tuning the system until it meets the promised specifications
// exactly ... delays the deployment of the ASICs." A self-operated cloud
// runs every chip at its own best frequency immediately; a hardware
// vendor ships only chips that meet the advertised bin and waits on the
// rest.
type Binning struct {
	// Sigma is the relative standard deviation of chip frequency
	// (5-8% is typical for a mature 28nm process).
	Sigma float64
}

// DefaultBinning is a mature-process spread.
func DefaultBinning() Binning { return Binning{Sigma: 0.06} }

// Validate reports whether the model is usable.
func (b Binning) Validate() error {
	if b.Sigma < 0 || b.Sigma >= 0.5 {
		return fmt.Errorf("vlsi: binning sigma %v outside [0, 0.5)", b.Sigma)
	}
	return nil
}

// normalCDF is Φ(x) via the complementary error function.
func normalCDF(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }

// SpecYield is the fraction of chips meeting a promised frequency,
// expressed relative to nominal (promise=0.95 ⇒ 95% of nominal).
func (b Binning) SpecYield(promise float64) float64 {
	//lint:ignore floatcmp Sigma==0 is the assigned "no process variation" model, never computed
	if b.Sigma == 0 {
		if promise <= 1 {
			return 1
		}
		return 0
	}
	return 1 - normalCDF((promise-1)/b.Sigma)
}

// SelfRunThroughput is the expected per-chip throughput, relative to
// nominal, when the operator runs every chip at its own measured
// frequency (the cloud model): simply the mean of the distribution, 1.0,
// less a small margin for the guard band the operator still applies.
func (b Binning) SelfRunThroughput(guardBand float64) (float64, error) {
	if err := b.Validate(); err != nil {
		return 0, err
	}
	if guardBand < 0 || guardBand >= 1 {
		return 0, fmt.Errorf("vlsi: guard band %v outside [0, 1)", guardBand)
	}
	return 1 - guardBand, nil
}

// VendorThroughput is the expected per-manufactured-chip throughput when
// chips are sold at a promised bin: chips below the bin are discarded
// (or delayed), chips above run at the promise. Expected throughput per
// manufactured chip = promise × yield(promise).
func (b Binning) VendorThroughput(promise float64) (float64, error) {
	if err := b.Validate(); err != nil {
		return 0, err
	}
	if promise <= 0 {
		return 0, fmt.Errorf("vlsi: promise %v must be positive", promise)
	}
	return promise * b.SpecYield(promise), nil
}

// BestVendorPromise searches the promised bin that maximizes expected
// throughput per manufactured chip, returning the promise and its
// throughput. Even at the optimum, the vendor model loses to self-run:
// discarded slow chips and the under-clocking of fast chips both waste
// silicon.
func (b Binning) BestVendorPromise() (promise, throughput float64, err error) {
	if err := b.Validate(); err != nil {
		return 0, 0, err
	}
	grid := make([]float64, 0, 81)
	for p := 0.70; p <= 1.10001; p += 0.005 {
		grid = append(grid, p)
	}
	best := -1.0
	bestP := 0.0
	for _, p := range grid {
		t, err := b.VendorThroughput(p)
		if err != nil {
			return 0, 0, err
		}
		if t > best {
			best, bestP = t, p
		}
	}
	return bestP, best, nil
}

// CloudAdvantage quantifies §3's argument: the throughput ratio of the
// self-operated cloud over the best-binning hardware vendor, per
// manufactured chip, with the given operator guard band.
func (b Binning) CloudAdvantage(guardBand float64) (float64, error) {
	self, err := b.SelfRunThroughput(guardBand)
	if err != nil {
		return 0, err
	}
	_, vendor, err := b.BestVendorPromise()
	if err != nil {
		return 0, err
	}
	if vendor <= 0 {
		return math.Inf(1), nil
	}
	return self / vendor, nil
}
