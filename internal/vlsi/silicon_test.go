package vlsi

import (
	"math"
	"testing"
	"testing/quick"
)

func TestYieldBounds(t *testing.T) {
	p := UMC28nm()
	if y := p.Yield(0); y != 1 {
		t.Errorf("Yield(0) = %v, want 1", y)
	}
	y600 := p.Yield(600)
	if y600 <= 0 || y600 >= 1 {
		t.Errorf("Yield(600) = %v, want in (0,1)", y600)
	}
	// Large dies yield worse.
	if p.Yield(100) <= y600 {
		t.Errorf("Yield(100)=%v should exceed Yield(600)=%v", p.Yield(100), y600)
	}
}

func TestYieldMonotoneProperty(t *testing.T) {
	p := UMC28nm()
	f := func(a, b uint16) bool {
		a1 := 1 + float64(a%600)
		a2 := 1 + float64(b%600)
		if a1 > a2 {
			a1, a2 = a2, a1
		}
		return p.Yield(a1) >= p.Yield(a2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiesPerWafer(t *testing.T) {
	p := UMC28nm()
	// A 300 mm wafer is 70,686 mm²; a 600 mm² die should give ~90 gross
	// dies after edge loss.
	got := p.DiesPerWafer(600)
	if got < 80 || got > 100 {
		t.Errorf("DiesPerWafer(600) = %v, want ~90", got)
	}
	small := p.DiesPerWafer(50)
	if small < 1200 || small > 1420 {
		t.Errorf("DiesPerWafer(50) = %v, want ~1300", small)
	}
}

func TestDieCost(t *testing.T) {
	p := UMC28nm()
	c600, err := p.DieCost(600)
	if err != nil {
		t.Fatal(err)
	}
	// Calibration anchor: a max-size 28nm die lands near $125 so that
	// the paper's 80-die energy-optimal Bitcoin server is silicon-
	// dominated at ~$9k (Table 3 / Figure 13).
	if c600 < 90 || c600 > 160 {
		t.Errorf("DieCost(600) = $%.2f, want ~$110-130", c600)
	}
	c100, err := p.DieCost(100)
	if err != nil {
		t.Fatal(err)
	}
	if c100 >= c600/4 {
		t.Errorf("small dies should be much cheaper per die: 100mm²=$%.2f vs 600mm²=$%.2f", c100, c600)
	}
	// Cost per good mm² must increase with die size (yield effect).
	pm100, pm600 := c100/100, c600/600
	if pm100 >= pm600 {
		t.Errorf("cost/mm² should grow with die size: %v vs %v", pm100, pm600)
	}
}

func TestDieCostErrors(t *testing.T) {
	p := UMC28nm()
	if _, err := p.DieCost(0); err == nil {
		t.Error("zero-area die should fail")
	}
	if _, err := p.DieCost(601); err == nil {
		t.Error("die above the 600 mm² limit should fail")
	}
	bad := p
	bad.WaferCost = 0
	if _, err := bad.DieCost(100); err == nil {
		t.Error("invalid process should fail")
	}
}

func TestDieCostMonotoneProperty(t *testing.T) {
	p := UMC28nm()
	f := func(a, b uint16) bool {
		a1 := 10 + float64(a%590)
		a2 := 10 + float64(b%590)
		if a1 > a2 {
			a1, a2 = a2, a1
		}
		c1, err1 := p.DieCost(a1)
		c2, err2 := p.DieCost(a2)
		return err1 == nil && err2 == nil && c1 <= c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func Test40nmCheaperMasks(t *testing.T) {
	if TSMC40nm().MaskCost >= UMC28nm().MaskCost {
		t.Error("40nm mask NRE should be below 28nm (paper §12: ~half)")
	}
}

func TestPackageCost(t *testing.T) {
	m := DefaultPackageModel()
	// The paper: per-chip assembly about $1; a small low-current chip
	// should cost only a few dollars total.
	c, err := m.Cost(100, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c < 1 || c > 10 {
		t.Errorf("package cost for 100 mm²/20 A = $%.2f, want a few dollars", c)
	}
	// High current adds power pins and cost.
	cHigh, err := m.Cost(100, 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cHigh <= c {
		t.Errorf("200 A package ($%.2f) should cost more than 20 A ($%.2f)", cHigh, c)
	}
	if _, err := m.Cost(0, 10, 0); err == nil {
		t.Error("zero-area package should fail")
	}
}

func TestPackagePins(t *testing.T) {
	m := DefaultPackageModel()
	pins := m.Pins(30, 0)
	// 30 A at 0.5 A per pin = 60 power pins, doubled for ground, plus
	// 96 signal pins.
	if pins != 2*60+96 {
		t.Errorf("Pins(30,0) = %d, want 216", pins)
	}
	if got := m.Pins(-5, 0); got != m.BaseSignalPins {
		t.Errorf("negative current should clamp: got %d", got)
	}
	if got := m.Pins(0, 50); got != m.BaseSignalPins+50 {
		t.Errorf("extra signal pins not added: got %d", got)
	}
}

func TestEstimatorReproducesBitcoinRCA(t *testing.T) {
	// Structural model of the unrolled 128-stage double-SHA256 pipeline:
	// ~768 pipeline bits per stage and ~1500 NAND2 of round logic.
	n := Netlist{
		Name:         "bitcoin-structural",
		Gates:        128 * 1500,
		Flops:        128 * 768,
		CombActivity: 0.5,
		FlopActivity: 1.0,
	}
	spec, err := Generic28nm().Estimate(n, 830e6, 1e-9, "GH/s")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(spec.Area-0.66)/0.66 > 0.10 {
		t.Errorf("estimated area %.3f mm², want 0.66 ±10%%", spec.Area)
	}
	if math.Abs(spec.NominalPowerDensity-2.0)/2.0 > 0.10 {
		t.Errorf("estimated power density %.3f W/mm², want 2.0 ±10%%", spec.NominalPowerDensity)
	}
	if spec.SRAMPowerFraction != 0 {
		t.Errorf("no SRAM in netlist but SRAM fraction = %v", spec.SRAMPowerFraction)
	}
	if math.Abs(spec.NominalPerf-0.83)/0.83 > 1e-9 {
		t.Errorf("estimated perf %.3f GH/s, want 0.83", spec.NominalPerf)
	}
}

func TestEstimatorSRAMDesign(t *testing.T) {
	n := Netlist{
		Name:                 "sram-heavy",
		Gates:                50_000,
		Flops:                10_000,
		SRAMBits:             128 * 1024 * 8, // 128 KB, the Litecoin scratchpad
		CombActivity:         0.15,
		FlopActivity:         0.3,
		SRAMAccessesPerCycle: 1,
		SRAMWordBits:         128,
	}
	spec, err := Generic28nm().Estimate(n, 800e6, 1e-6, "MH/s")
	if err != nil {
		t.Fatal(err)
	}
	if spec.SRAMPowerFraction <= 0 {
		t.Error("SRAM design should report SRAM power fraction")
	}
	if spec.SRAMVmin != 0.9 {
		t.Errorf("SRAM Vmin = %v, want 0.9", spec.SRAMVmin)
	}
	// SRAM-heavy designs have much lower power density than crypto logic.
	if spec.NominalPowerDensity >= 1.0 {
		t.Errorf("SRAM-heavy density %.3f W/mm² should be well under crypto's 2.0", spec.NominalPowerDensity)
	}
}

func TestEstimatorErrors(t *testing.T) {
	tech := Generic28nm()
	if _, err := tech.Estimate(Netlist{Gates: -1}, 1e9, 1, "x"); err == nil {
		t.Error("negative gates should fail")
	}
	if _, err := tech.Estimate(Netlist{Gates: 100}, 0, 1, "x"); err == nil {
		t.Error("zero frequency should fail")
	}
	if _, err := tech.Estimate(Netlist{}, 1e9, 1, "x"); err == nil {
		t.Error("empty netlist should fail")
	}
}
