package carbon

import (
	"math"
	"testing"

	"asiccloud/internal/vlsi"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Model)
	}{
		{"NaN wafer", func(m *Model) { m.WaferKgCO2e = math.NaN() }},
		{"Inf intensity", func(m *Model) { m.GridGCO2ePerKWh = math.Inf(1) }},
		{"NaN utilization", func(m *Model) { m.Utilization = math.NaN() }},
		{"negative wafer", func(m *Model) { m.WaferKgCO2e = -1 }},
		{"negative package", func(m *Model) { m.PackageKgCO2e = -0.1 }},
		{"negative intensity", func(m *Model) { m.GridGCO2ePerKWh = -5 }},
		{"PUE below 1", func(m *Model) { m.PUE = 0.9 }},
		{"zero lifetime", func(m *Model) { m.LifetimeYears = 0 }},
		{"zero utilization", func(m *Model) { m.Utilization = 0 }},
		{"utilization above 1", func(m *Model) { m.Utilization = 1.1 }},
	}
	for _, tc := range cases {
		m := Default()
		tc.mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, m)
		}
	}
	// A fully decarbonized grid is valid, not an error.
	m := Default()
	m.GridGCO2ePerKWh = 0
	if err := m.Validate(); err != nil {
		t.Errorf("zero grid intensity should validate: %v", err)
	}
}

// TestOperationalKg checks the energy accounting by hand: 100 W at
// PUE 1.2, half utilization, over 2 years on a 500 g/kWh grid is
// 100 × 1.2 × 0.5 × 2 × 8760 / 1000 = 1051.2 kWh → 525.6 kg CO2e.
func TestOperationalKg(t *testing.T) {
	m := Model{
		WaferKgCO2e: 1, GridGCO2ePerKWh: 500,
		PUE: 1.2, LifetimeYears: 2, Utilization: 0.5,
	}
	got := m.OperationalKg(100)
	want := 525.6
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("OperationalKg(100) = %v, want %v", got, want)
	}
	m.GridGCO2ePerKWh = 0
	if z := m.OperationalKg(100); z != 0 {
		t.Errorf("zero-intensity grid: OperationalKg = %v, want 0", z)
	}
}

// TestEmbodiedServerKg checks that the per-die wafer share mirrors
// vlsi.Process.DieCost's yield accounting: wafer emission divided by
// yielded good dies, not gross dies.
func TestEmbodiedServerKg(t *testing.T) {
	m := Default()
	p := vlsi.UMC28nm()
	const area, chips = 100.0, 10
	good := p.DiesPerWafer(area) * p.Yield(area)
	if good <= 0 {
		t.Fatal("test geometry should yield")
	}
	perChip := m.WaferKgCO2e/good + m.PackageKgCO2e + m.HeatSinkKgCO2e
	want := float64(chips)*perChip + m.BoardKgCO2e
	got := m.EmbodiedServerKg(p, area, chips)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("EmbodiedServerKg = %v, want %v", got, want)
	}
	// Larger dies yield worse, so the silicon share of embodied carbon
	// must rise superlinearly with die area.
	sil := func(a float64) float64 { return m.WaferKgCO2e / (p.DiesPerWafer(a) * p.Yield(a)) }
	if small, big := sil(50), sil(500); big <= 10*small {
		t.Errorf("yield loss missing: 500mm2 silicon %v kg <= 10x 50mm2 silicon %v kg", big, small)
	}
}

// TestEmbodiedRisesAsYieldFalls: at a fixed die area and chip count,
// a dirtier process yields fewer good dies per wafer, so each good die
// carries a larger share of the wafer's emission. Stepping the defect
// density up from zero must lower the yield and strictly raise the
// server's embodied CO2e, for small, mid-size and reticle-limit dies.
func TestEmbodiedRisesAsYieldFalls(t *testing.T) {
	m := Default()
	const chips = 10
	for _, area := range []float64{50, 200, 600} {
		p := vlsi.UMC28nm()
		p.DefectDensity = 0
		lastYield, lastKg := p.Yield(area), m.EmbodiedServerKg(p, area, chips)
		if lastYield != 1 {
			t.Fatalf("%v mm²: yield %v at zero defect density, want 1", area, lastYield)
		}
		for _, d0 := range []float64{0.05, 0.1, 0.22, 0.5, 1, 2} {
			p.DefectDensity = d0
			y, kg := p.Yield(area), m.EmbodiedServerKg(p, area, chips)
			if y >= lastYield {
				t.Errorf("%v mm², D0 %v: yield %v does not fall below %v", area, d0, y, lastYield)
			}
			if math.IsInf(kg, 0) || kg <= lastKg {
				t.Errorf("%v mm², D0 %v: embodied %v kg does not rise above %v kg as yield falls to %v",
					area, d0, kg, lastKg, y)
			}
			lastYield, lastKg = y, kg
		}
	}
}

// TestEmbodiedServerKgUnyieldable: a die too large for the wafer
// returns +Inf, never an error or a finite underestimate.
func TestEmbodiedServerKgUnyieldable(t *testing.T) {
	got := Default().EmbodiedServerKg(vlsi.UMC28nm(), 1e9, 1)
	if !math.IsInf(got, 1) {
		t.Errorf("unyieldable die: EmbodiedServerKg = %v, want +Inf", got)
	}
}

func TestBreakdown(t *testing.T) {
	b := Breakdown{EmbodiedKg: 1.5, OperationalKg: 2.5}
	if b.Total() != 4 {
		t.Errorf("Total = %v, want 4", b.Total())
	}
	// Of divides embodied by perf and meters operational on wall power
	// per perf.
	m := Model{
		WaferKgCO2e: 1, GridGCO2ePerKWh: 500,
		PUE: 1.2, LifetimeYears: 2, Utilization: 0.5,
	}
	got := m.Of(600, 2, 200)
	if got.EmbodiedKg != 300 {
		t.Errorf("EmbodiedKg = %v, want 300", got.EmbodiedKg)
	}
	if math.Abs(got.OperationalKg-525.6) > 1e-9 {
		t.Errorf("OperationalKg = %v, want 525.6", got.OperationalKg)
	}
}
