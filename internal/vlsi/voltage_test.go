package vlsi

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDelayCurveAnchorsExact(t *testing.T) {
	c := Default28nm()
	cases := []struct{ v, want float64 }{
		{1.00, 1.0},
		{0.62, 830.0 / 465.0},
		{0.49, 830.0 / 202.0},
		{0.40, 830.0 / 70.0},
	}
	for _, tc := range cases {
		if got := c.Delay(tc.v); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Delay(%.2f) = %v, want %v", tc.v, got, tc.want)
		}
	}
}

func TestDelayCurveMonotone(t *testing.T) {
	c := Default28nm()
	prev := math.Inf(1)
	for v := 0.40; v <= 1.50; v += 0.001 {
		d := c.Delay(v)
		if d > prev+1e-12 {
			t.Fatalf("delay not monotone: Delay(%.3f)=%v > previous %v", v, d, prev)
		}
		if d <= 0 {
			t.Fatalf("delay non-positive at %.3f V", v)
		}
		prev = d
	}
}

func TestDelayCurveMonotoneProperty(t *testing.T) {
	c := Default28nm()
	f := func(a, b uint16) bool {
		v1 := 0.40 + 1.10*float64(a)/65535
		v2 := 0.40 + 1.10*float64(b)/65535
		if v1 > v2 {
			v1, v2 = v2, v1
		}
		return c.Delay(v1) >= c.Delay(v2)-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDelayCurveClampsOutsideRange(t *testing.T) {
	c := Default28nm()
	if got := c.Delay(0.2); got != c.Delay(0.40) {
		t.Errorf("below-range delay = %v, want clamp to %v", got, c.Delay(0.40))
	}
	if got := c.Delay(2.0); got != c.Delay(1.50) {
		t.Errorf("above-range delay = %v, want clamp to %v", got, c.Delay(1.50))
	}
}

func TestDelayCurveSpeedup(t *testing.T) {
	c := Default28nm()
	// 830 MHz at 1.0 V should slow to ~202 MHz at 0.49 V.
	got := 830e6 * c.SpeedupVs(0.49, 1.0)
	if math.Abs(got-202e6)/202e6 > 1e-9 {
		t.Errorf("freq at 0.49 V = %v, want 202 MHz", got)
	}
}

func TestNewDelayCurveRejectsBadInput(t *testing.T) {
	if _, err := NewDelayCurve(map[float64]float64{1.0: 1.0}); err == nil {
		t.Error("single anchor should fail")
	}
	if _, err := NewDelayCurve(map[float64]float64{0.5: 1.0, 1.0: 2.0}); err == nil {
		t.Error("increasing delay with voltage should fail")
	}
	if _, err := NewDelayCurve(map[float64]float64{0.5: -1.0, 1.0: -2.0}); err == nil {
		t.Error("negative delay should fail")
	}
}
