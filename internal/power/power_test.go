package power

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPSU(t *testing.T) {
	p := DefaultPSU()
	if got := p.WallPower(900); math.Abs(got-1000) > 1e-9 {
		t.Errorf("WallPower(900) = %v, want 1000 at 90%%", got)
	}
	if got := p.Cost(1000); math.Abs(got-130) > 1e-9 {
		t.Errorf("Cost(1000) = %v, want $130 at $0.13/W", got)
	}
	if got := p.Cost(-5); got != 0 {
		t.Errorf("negative wall power cost = %v, want 0", got)
	}
	zero := PSU{}
	if got := zero.WallPower(100); got != 0 {
		t.Errorf("broken PSU wall power = %v, want 0", got)
	}
}

func TestDCDCUnits(t *testing.T) {
	d := DefaultDCDC()
	cases := []struct {
		amps float64
		want int
	}{
		{0, 0}, {-3, 0}, {1, 1}, {30, 1}, {30.1, 2}, {90, 3}, {91, 4},
	}
	for _, c := range cases {
		if got := d.Units(c.amps); got != c.want {
			t.Errorf("Units(%v) = %d, want %d", c.amps, got, c.want)
		}
	}
}

func TestDCDCUnitsCoverDemandProperty(t *testing.T) {
	d := DefaultDCDC()
	f := func(a uint16) bool {
		amps := float64(a) / 10
		n := d.Units(amps)
		return float64(n)*d.AmpsPerUnit >= amps-1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDCDCPowerAndCost(t *testing.T) {
	d := DefaultDCDC()
	if got := d.InputPower(90); math.Abs(got-100) > 1e-9 {
		t.Errorf("InputPower(90) = %v, want 100", got)
	}
	if got := d.Cost(1000); math.Abs(got-330) > 1e-9 {
		t.Errorf("Cost(1000A) = %v, want $330", got)
	}
}

func TestRailAmps(t *testing.T) {
	r := Rail{Name: "core", Voltage: 0.5, Power: 100}
	if got := r.Amps(); math.Abs(got-200) > 1e-9 {
		t.Errorf("Amps = %v, want 200", got)
	}
	if got := (Rail{Voltage: 0}).Amps(); got != 0 {
		t.Errorf("zero-voltage rail amps = %v, want 0", got)
	}
}

func TestPlan(t *testing.T) {
	// The paper's cost-optimal Bitcoin server: ~1900 W of silicon at
	// 0.62 V → ~3070 A → ~$1013 of DC/DC, dominating the BOM.
	rails := []Rail{{Name: "core", Voltage: 0.62, Power: 1904}}
	d, err := Plan(DefaultPSU(), DefaultDCDC(), rails, 60)
	if err != nil {
		t.Fatal(err)
	}
	wantAmps := 1904 / 0.62
	if math.Abs(d.DCDCAmps-wantAmps)/wantAmps > 1e-9 {
		t.Errorf("amps = %v, want %v", d.DCDCAmps, wantAmps)
	}
	if d.DCDCCost < 1000 || d.DCDCCost > 1030 {
		t.Errorf("DC/DC cost = $%.0f, want ~$1013", d.DCDCCost)
	}
	wantWall := (1904/0.9 + 60) / 0.9
	if math.Abs(d.WallPower-wantWall)/wantWall > 1e-9 {
		t.Errorf("wall power = %v, want %v", d.WallPower, wantWall)
	}
	// End-to-end efficiency is the product of both stages scaled by the
	// fan overhead.
	if d.Efficiency <= 0.75 || d.Efficiency >= 0.81 {
		t.Errorf("efficiency = %v, want close to but under 0.81", d.Efficiency)
	}
}

func TestPlanTwoRails(t *testing.T) {
	// Litecoin-style: logic at 0.7 V plus an SRAM rail pinned at 0.9 V.
	rails := []Rail{
		{Name: "logic", Voltage: 0.7, Power: 700},
		{Name: "sram", Voltage: 0.9, Power: 900},
	}
	d, err := Plan(DefaultPSU(), DefaultDCDC(), rails, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantAmps := 700/0.7 + 900/0.9
	if math.Abs(d.DCDCAmps-wantAmps) > 1e-9 {
		t.Errorf("amps = %v, want %v", d.DCDCAmps, wantAmps)
	}
	if d.RailPower != 1600 {
		t.Errorf("rail power = %v, want 1600", d.RailPower)
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := Plan(DefaultPSU(), DefaultDCDC(), []Rail{{Voltage: 0, Power: 10}}, 0); err == nil {
		t.Error("zero-voltage rail should fail")
	}
	if _, err := Plan(DefaultPSU(), DefaultDCDC(), []Rail{{Voltage: 1, Power: -10}}, 0); err == nil {
		t.Error("negative rail power should fail")
	}
	if _, err := Plan(DefaultPSU(), DefaultDCDC(), nil, -1); err == nil {
		t.Error("negative 12 V load should fail")
	}
}

func TestLowerVoltageCostsMoreDCDC(t *testing.T) {
	// Same silicon power at lower voltage needs more amps, hence more
	// converters — the effect that penalizes near-threshold designs in
	// $/op/s (paper Figure 13 discussion).
	lo, _ := Plan(DefaultPSU(), DefaultDCDC(), []Rail{{Name: "c", Voltage: 0.4, Power: 1000}}, 0)
	hi, _ := Plan(DefaultPSU(), DefaultDCDC(), []Rail{{Name: "c", Voltage: 0.8, Power: 1000}}, 0)
	if lo.DCDCCost <= hi.DCDCCost {
		t.Errorf("0.4 V DC/DC ($%.0f) should cost more than 0.8 V ($%.0f)", lo.DCDCCost, hi.DCDCCost)
	}
	if lo.DCDCCost/hi.DCDCCost != 2 {
		t.Errorf("cost ratio = %v, want exactly 2 (amps double)", lo.DCDCCost/hi.DCDCCost)
	}
}

func TestPlanStack(t *testing.T) {
	sp, err := PlanStack(12, 0.49)
	if err != nil {
		t.Fatal(err)
	}
	// 12/0.49 = 24.49 → 24 chips at 0.5 V each.
	if sp.ChipsPerStack != 24 {
		t.Errorf("chips per stack = %d, want 24", sp.ChipsPerStack)
	}
	if math.Abs(sp.ChipVoltage-0.5) > 1e-9 {
		t.Errorf("chip voltage = %v, want 0.5", sp.ChipVoltage)
	}
	if _, err := PlanStack(0, 0.5); err == nil {
		t.Error("zero bus should fail")
	}
	if _, err := PlanStack(12, 13); err == nil {
		t.Error("chip voltage above bus should fail")
	}
}

func TestPlanStackedBeatsDCDC(t *testing.T) {
	// Voltage stacking eliminates converter cost and loss; the paper's
	// stacked TCO-optimal design saves ~13% energy per op.
	railPower := 2000.0
	sp, _ := PlanStack(12, 0.48)
	stacked, err := PlanStacked(DefaultPSU(), sp, railPower, 80, 60)
	if err != nil {
		t.Fatal(err)
	}
	rails := []Rail{{Name: "core", Voltage: 0.48, Power: railPower}}
	conv, _ := Plan(DefaultPSU(), DefaultDCDC(), rails, 60)
	if stacked.WallPower >= conv.WallPower {
		t.Errorf("stacked wall %v should beat converter wall %v", stacked.WallPower, conv.WallPower)
	}
	if stacked.DCDCCost >= conv.DCDCCost {
		t.Errorf("stacked balance cost $%.0f should beat converters $%.0f", stacked.DCDCCost, conv.DCDCCost)
	}
	if stacked.Efficiency <= conv.Efficiency {
		t.Error("stacked efficiency should exceed converter chain")
	}
}

func TestPlanStackedErrors(t *testing.T) {
	sp, _ := PlanStack(12, 0.5)
	if _, err := PlanStacked(DefaultPSU(), sp, -1, 10, 0); err == nil {
		t.Error("negative power should fail")
	}
	if _, err := PlanStacked(DefaultPSU(), sp, 100, 0, 0); err == nil {
		t.Error("zero chips should fail")
	}
}
