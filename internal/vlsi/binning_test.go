package vlsi

import (
	"math"
	"testing"
)

func TestBinningValidate(t *testing.T) {
	if err := DefaultBinning().Validate(); err != nil {
		t.Fatal(err)
	}
	if (Binning{Sigma: -0.1}).Validate() == nil {
		t.Error("negative sigma should fail")
	}
	if (Binning{Sigma: 0.6}).Validate() == nil {
		t.Error("huge sigma should fail")
	}
}

func TestSpecYield(t *testing.T) {
	b := DefaultBinning()
	// Promising the nominal frequency loses half the chips.
	if y := b.SpecYield(1.0); math.Abs(y-0.5) > 1e-9 {
		t.Errorf("yield at nominal promise = %v, want 0.5", y)
	}
	// Promising one sigma below nominal keeps ~84%.
	if y := b.SpecYield(1 - b.Sigma); math.Abs(y-0.8413) > 0.001 {
		t.Errorf("yield at -1σ = %v, want ~0.841", y)
	}
	// Yield is monotone decreasing in the promise.
	prev := 1.1
	for p := 0.7; p <= 1.2; p += 0.01 {
		y := b.SpecYield(p)
		if y > prev+1e-12 {
			t.Fatalf("yield not monotone at %v", p)
		}
		prev = y
	}
	// Zero-variance process: everything meets up to nominal.
	exact := Binning{Sigma: 0}
	if exact.SpecYield(0.99) != 1 || exact.SpecYield(1.01) != 0 {
		t.Error("zero-sigma yields wrong")
	}
}

func TestVendorVsCloud(t *testing.T) {
	b := DefaultBinning()
	promise, vendor, err := b.BestVendorPromise()
	if err != nil {
		t.Fatal(err)
	}
	// The best promise sits below nominal (discarding half the chips at
	// promise=1.0 is never optimal at 6% sigma).
	if promise >= 1.0 {
		t.Errorf("best vendor promise = %v, want below nominal", promise)
	}
	if vendor <= 0 || vendor >= 1 {
		t.Errorf("vendor throughput = %v, want in (0, 1)", vendor)
	}
	// §3: the self-operated cloud beats the best vendor bin even after
	// a guard band, because it wastes no manufactured silicon.
	adv, err := b.CloudAdvantage(0.02)
	if err != nil {
		t.Fatal(err)
	}
	if adv <= 1.0 {
		t.Errorf("cloud advantage = %v, want > 1 (the paper's §3 argument)", adv)
	}
	if adv > 1.5 {
		t.Errorf("cloud advantage = %v suspiciously large for 6%% sigma", adv)
	}
}

func TestCloudAdvantageGrowsWithVariation(t *testing.T) {
	// The worse the process spread, the more the vendor model wastes.
	tight, err := (Binning{Sigma: 0.03}).CloudAdvantage(0.02)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := (Binning{Sigma: 0.12}).CloudAdvantage(0.02)
	if err != nil {
		t.Fatal(err)
	}
	if loose <= tight {
		t.Errorf("advantage should grow with sigma: %v vs %v", tight, loose)
	}
}

func TestBinningErrors(t *testing.T) {
	b := DefaultBinning()
	if _, err := b.SelfRunThroughput(-0.1); err == nil {
		t.Error("negative guard band should fail")
	}
	if _, err := b.SelfRunThroughput(1.0); err == nil {
		t.Error("full guard band should fail")
	}
	if _, err := b.VendorThroughput(0); err == nil {
		t.Error("zero promise should fail")
	}
}
