package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConversionsRoundTrip(t *testing.T) {
	if got := MM2ToM2(1e6); got != 1 {
		t.Errorf("MM2ToM2(1e6) = %v, want 1", got)
	}
	if got := GToKg(475); got != 0.475 {
		t.Errorf("GToKg(475) = %v, want 0.475", got)
	}
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(100, 100.5, 0.01) {
		t.Error("100 vs 100.5 at 1% should be equal")
	}
	if ApproxEqual(100, 110, 0.01) {
		t.Error("100 vs 110 at 1% should differ")
	}
	if !ApproxEqual(0, 1e-9, 1e-6) {
		t.Error("near-zero absolute comparison failed")
	}
}

func TestBisectFindsRoot(t *testing.T) {
	f := func(x float64) float64 { return x*x - 2 }
	x, ok := Bisect(f, 0, 2, 1e-9, 200)
	if !ok {
		t.Fatal("bisect reported failure")
	}
	if !ApproxEqual(x, math.Sqrt2, 1e-6) {
		t.Errorf("root = %v, want sqrt(2)", x)
	}
}

func TestBisectNoSignChange(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 } // always positive
	x, ok := Bisect(f, -1, 1, 1e-9, 100)
	if ok {
		t.Error("expected ok=false without a sign change")
	}
	// Endpoint with smaller |f| is ±1 (f=2) vs interior not examined; the
	// two endpoints tie so either is acceptable.
	if x != -1 && x != 1 {
		t.Errorf("x = %v, want an endpoint", x)
	}
}

func TestBisectEndpointRoots(t *testing.T) {
	f := func(x float64) float64 { return x }
	if x, ok := Bisect(f, 0, 1, 1e-9, 100); !ok || x != 0 {
		t.Errorf("lo endpoint root: got (%v,%v)", x, ok)
	}
	if x, ok := Bisect(f, -1, 0, 1e-9, 100); !ok || x != 0 {
		t.Errorf("hi endpoint root: got (%v,%v)", x, ok)
	}
}

func TestMoney(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "$0"},
		{999, "$999"},
		{1000, "$1,000"},
		{12686, "$12,686"},
		{1234567, "$1,234,567"},
		{-2484, "-$2,484"},
		{999.6, "$1,000"},
	}
	for _, c := range cases {
		if got := Money(c.v); got != c.want {
			t.Errorf("Money(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestBisectMonotoneProperty(t *testing.T) {
	// For any c in (0, 100), bisect solves x - c = 0 on [0, 100].
	f := func(seed uint32) bool {
		c := 0.001 + float64(seed%99999)/1000.0
		if c >= 100 {
			c = 99.9
		}
		x, ok := Bisect(func(x float64) float64 { return x - c }, 0, 100, 1e-9, 200)
		return ok && ApproxEqual(x, c, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewConversionHelpers(t *testing.T) {
	if got := UM2ToMM2(1e6); got != 1 {
		t.Errorf("UM2ToMM2(1e6) = %v, want 1 mm²", got)
	}
	if got := WToMW(2.5e6); got != 2.5 {
		t.Errorf("WToMW(2.5e6) = %v, want 2.5 MW", got)
	}
	if got := HzToMHz(830e6); got != 830 {
		t.Errorf("HzToMHz(830e6) = %v, want 830 MHz", got)
	}
	if got := HsToGHs(GHsToHs(12.5)); got != 12.5 {
		t.Errorf("GH/s round trip = %v, want 12.5", got)
	}
	if got := HsToMHs(3e6); got != 3 {
		t.Errorf("HsToMHs(3e6) = %v, want 3 MH/s", got)
	}
	if got := MToMM(0.04); !ApproxEqual(got, 40, 1e-12) {
		t.Errorf("MToMM(0.04) = %v, want 40 mm", got)
	}
}

func TestTimeConstants(t *testing.T) {
	if HoursPerYear != 8760 {
		t.Errorf("HoursPerYear = %v, want 8760", HoursPerYear)
	}
	if SecondsPerHour != 3600 {
		t.Errorf("SecondsPerHour = %v, want 3600", SecondsPerHour)
	}
	if WattsPerKilowatt != 1000 {
		t.Errorf("WattsPerKilowatt = %v, want 1000", WattsPerKilowatt)
	}
	if Million != 1e6 {
		t.Errorf("Million = %v, want 1e6", Million)
	}
}

func TestApproxZero(t *testing.T) {
	if !ApproxZero(0, 1e-9) {
		t.Error("exact zero should be approximately zero")
	}
	if !ApproxZero(-1e-12, 1e-9) {
		t.Error("tiny negative value should be approximately zero")
	}
	if ApproxZero(1e-3, 1e-9) {
		t.Error("1e-3 is not zero at 1e-9 tolerance")
	}
	if ApproxZero(math.NaN(), 1e-9) {
		t.Error("NaN must not count as zero")
	}
}
