package tco

import (
	"math"
	"testing"
	"testing/quick"
)

// relErr returns |got-want|/|want|.
func relErr(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Default()
	bad.LifetimeYears = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero lifetime should fail")
	}
	bad = Default()
	bad.PUE = 0.8
	if err := bad.Validate(); err == nil {
		t.Error("PUE < 1 should fail")
	}
	bad = Default()
	bad.InterestRate = -0.1
	if err := bad.Validate(); err == nil {
		t.Error("negative rate should fail")
	}
}

// TestValidateRejectsNonFinite: NaN and +Inf fail in each of the seven
// fields, as do a negative markup and a negative facility amortization
// period, while the ends of the iso-TCO slope — a zero markup, interest
// rate or electricity price — stay valid.
func TestValidateRejectsNonFinite(t *testing.T) {
	fields := map[string]func(*Model) *float64{
		"ServerMarkup":       func(m *Model) *float64 { return &m.ServerMarkup },
		"InterestRate":       func(m *Model) *float64 { return &m.InterestRate },
		"LifetimeYears":      func(m *Model) *float64 { return &m.LifetimeYears },
		"DCCapexPerWattYear": func(m *Model) *float64 { return &m.DCCapexPerWattYear },
		"DCAmortYears":       func(m *Model) *float64 { return &m.DCAmortYears },
		"ElectricityPerKWh":  func(m *Model) *float64 { return &m.ElectricityPerKWh },
		"PUE":                func(m *Model) *float64 { return &m.PUE },
	}
	for name, field := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1)} {
			m := Default()
			*field(&m) = v
			if err := m.Validate(); err == nil {
				t.Errorf("%s = %v accepted", name, v)
			}
		}
	}
	for _, name := range []string{"ServerMarkup", "DCAmortYears"} {
		m := Default()
		*fields[name](&m) = -1
		if err := m.Validate(); err == nil {
			t.Errorf("%s = -1 accepted", name)
		}
	}
	for _, name := range []string{"ServerMarkup", "InterestRate", "ElectricityPerKWh"} {
		m := Default()
		*fields[name](&m) = 0
		if err := m.Validate(); err != nil {
			t.Errorf("%s = 0 rejected: %v", name, err)
		}
	}
}

// TestBitcoinTable3 checks the model against the paper's Table 3
// TCO-optimal Bitcoin server: $1.076/GH/s and 0.508 W/GH/s give
// TCO/GH/s = 3.218 with the published component breakdown.
func TestBitcoinTable3(t *testing.T) {
	m := Default()
	b := m.Of(1.076, 0.508)
	checks := []struct {
		name      string
		got, want float64
	}{
		{"ServerAmort", b.ServerAmort, 1.130},
		{"AmortInterest", b.AmortInterest, 0.069},
		{"DCCapex", b.DCCapex, 1.222},
		{"Electricity", b.Electricity, 0.441},
		{"DCInterest", b.DCInterest, 0.355},
		{"Total", b.Total(), 3.218},
	}
	for _, c := range checks {
		if relErr(c.got, c.want) > 0.01 {
			t.Errorf("%s = %.4f, want %.3f (±1%%)", c.name, c.got, c.want)
		}
	}
}

// TestBitcoinTable3Extremes verifies the energy-optimal and cost-optimal
// columns too.
func TestBitcoinTable3Extremes(t *testing.T) {
	m := Default()
	if got := m.Of(2.490, 0.368).Total(); relErr(got, 4.235) > 0.01 {
		t.Errorf("energy-optimal TCO = %.4f, want 4.235", got)
	}
	if got := m.Of(0.833, 0.788).Total(); relErr(got, 4.057) > 0.01 {
		t.Errorf("cost-optimal TCO = %.4f, want 4.057", got)
	}
}

// TestLitecoinTable4 checks the three Table 4 columns.
func TestLitecoinTable4(t *testing.T) {
	m := Default()
	cases := []struct{ c, w, want float64 }{
		{36.674, 2.011, 48.860},
		{10.842, 2.922, 23.686},
		{8.750, 4.475, 27.523},
	}
	for _, tc := range cases {
		if got := m.Of(tc.c, tc.w).Total(); relErr(got, tc.want) > 0.01 {
			t.Errorf("Of(%v, %v) = %.3f, want %.3f", tc.c, tc.w, got, tc.want)
		}
	}
}

// TestXcodeTable5 and TestCNNTable6 check the remaining published tables.
func TestXcodeTable5(t *testing.T) {
	m := Default()
	cases := []struct{ c, w, want float64 }{
		{84.975, 8.741, 129.416},
		{40.881, 10.428, 86.971},
		{35.880, 16.904, 107.111},
	}
	for _, tc := range cases {
		if got := m.Of(tc.c, tc.w).Total(); relErr(got, tc.want) > 0.01 {
			t.Errorf("Of(%v, %v) = %.3f, want %.3f", tc.c, tc.w, got, tc.want)
		}
	}
}

func TestCNNTable6(t *testing.T) {
	m := Default()
	if got := m.Of(10.788, 7.697).Total(); relErr(got, 42.589) > 0.01 {
		t.Errorf("CNN TCO-optimal = %.3f, want 42.589", got)
	}
	if got := m.Of(10.276, 8.932).Total(); relErr(got, 46.92) > 0.01 {
		t.Errorf("CNN cost-optimal = %.3f, want 46.92", got)
	}
}

func TestCoefficientsLinear(t *testing.T) {
	m := Default()
	a, b := m.Coefficients()
	f := func(c, w uint16) bool {
		cost := float64(c) / 100
		watts := float64(w) / 100
		return math.Abs(m.Of(cost, watts).Total()-(a*cost+b*watts)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsoTCOLine(t *testing.T) {
	m := Default()
	level := 3.218
	intercept, slope := m.IsoTCOLine(level)
	// Any point on the line has the stated TCO.
	for _, w := range []float64{0, 0.5, 1.0} {
		c := intercept + slope*w
		if got := m.Of(c, w).Total(); relErr(got, level) > 1e-9 {
			t.Errorf("point (%v, %v) on iso line has TCO %v, want %v", w, c, got, level)
		}
	}
	if slope >= 0 {
		t.Error("iso-TCO slope in (watts, cost) plane should be negative")
	}
}

func TestLongerLifetimeShiftsWeightToEnergy(t *testing.T) {
	short := ForLifetime(1.5)
	long := ForLifetime(3)
	_, bShort := short.Coefficients()
	_, bLong := long.Coefficients()
	if bLong <= bShort {
		t.Errorf("3-year energy weight (%v) should exceed 1.5-year (%v)", bLong, bShort)
	}
	aShort, _ := short.Coefficients()
	aLong, _ := long.Coefficients()
	if aLong <= aShort {
		t.Error("longer amortization accrues more interest on the server")
	}
}

func TestBreakdownSharesMatchPaper(t *testing.T) {
	// "The portion of TCO attributable to ASIC Server cost is 35%; to
	// Data Center capital expense is 38%, to electricity, 13.7%, and to
	// interest, about 13%." (Bitcoin TCO-optimal.)
	m := Default()
	b := m.Of(1.076, 0.508)
	total := b.Total()
	if share := b.ServerAmort / total; math.Abs(share-0.35) > 0.02 {
		t.Errorf("server share = %.3f, want ~0.35", share)
	}
	if share := b.DCCapex / total; math.Abs(share-0.38) > 0.02 {
		t.Errorf("DC capex share = %.3f, want ~0.38", share)
	}
	if share := b.Electricity / total; math.Abs(share-0.137) > 0.02 {
		t.Errorf("electricity share = %.3f, want ~0.137", share)
	}
	if share := (b.AmortInterest + b.DCInterest) / total; math.Abs(share-0.13) > 0.02 {
		t.Errorf("interest share = %.3f, want ~0.13", share)
	}
}
