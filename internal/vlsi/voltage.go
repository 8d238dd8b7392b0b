package vlsi

import (
	"fmt"
	"sort"
)

// DelayCurve maps logic supply voltage to normalized critical-path delay
// (delay at the nominal voltage is 1.0). It is implemented as a monotone
// piecewise-cubic (Fritsch–Carlson) interpolant over calibration anchors so
// the curve is smooth, strictly decreasing in voltage, and passes exactly
// through the published operating points.
type DelayCurve struct {
	v, d []float64 // anchor voltages (ascending) and delays
	m    []float64 // Hermite slopes at the anchors
}

// NewDelayCurve builds a curve from (voltage, normalized delay) anchors.
// Anchors need not be sorted. It returns an error if fewer than two anchors
// are given, if voltages repeat, or if delay is not strictly decreasing
// with voltage (faster at higher voltage is a physical requirement).
func NewDelayCurve(anchors map[float64]float64) (*DelayCurve, error) {
	if len(anchors) < 2 {
		return nil, fmt.Errorf("vlsi: delay curve needs at least 2 anchors, got %d", len(anchors))
	}
	vs := make([]float64, 0, len(anchors))
	for v := range anchors {
		vs = append(vs, v)
	}
	sort.Float64s(vs)
	ds := make([]float64, len(vs))
	for i, v := range vs {
		ds[i] = anchors[v]
		if ds[i] <= 0 {
			return nil, fmt.Errorf("vlsi: delay must be positive at %.2f V", v)
		}
		if i > 0 && ds[i] >= ds[i-1] {
			return nil, fmt.Errorf("vlsi: delay must strictly decrease with voltage (violated at %.2f V)", v)
		}
	}
	c := &DelayCurve{v: vs, d: ds}
	c.computeSlopes()
	return c, nil
}

// computeSlopes fills in monotonicity-preserving Hermite slopes
// (Fritsch–Carlson limiter).
func (c *DelayCurve) computeSlopes() {
	n := len(c.v)
	sec := make([]float64, n-1) // secant slopes
	for i := 0; i < n-1; i++ {
		sec[i] = (c.d[i+1] - c.d[i]) / (c.v[i+1] - c.v[i])
	}
	m := make([]float64, n)
	m[0], m[n-1] = sec[0], sec[n-2]
	for i := 1; i < n-1; i++ {
		if sec[i-1]*sec[i] <= 0 {
			m[i] = 0
		} else {
			// Harmonic mean preserves monotonicity.
			w1 := 2*(c.v[i+1]-c.v[i]) + (c.v[i] - c.v[i-1])
			w2 := (c.v[i+1] - c.v[i]) + 2*(c.v[i]-c.v[i-1])
			m[i] = (w1 + w2) / (w1/sec[i-1] + w2/sec[i])
		}
	}
	c.m = m
}

// Min and Max report the calibrated voltage range of the curve.
func (c *DelayCurve) Min() float64 { return c.v[0] }

// Max reports the highest calibrated voltage.
func (c *DelayCurve) Max() float64 { return c.v[len(c.v)-1] }

// Delay returns the normalized critical-path delay at voltage v. Voltages
// outside the calibrated range are clamped to the range endpoints: below
// the minimum the circuit is assumed non-functional and callers should
// first check v >= Min().
func (c *DelayCurve) Delay(v float64) float64 {
	n := len(c.v)
	if v <= c.v[0] {
		return c.d[0]
	}
	if v >= c.v[n-1] {
		return c.d[n-1]
	}
	// Binary search for the interval.
	i := sort.SearchFloat64s(c.v, v) - 1
	h := c.v[i+1] - c.v[i]
	t := (v - c.v[i]) / h
	t2, t3 := t*t, t*t*t
	h00 := 2*t3 - 3*t2 + 1
	h10 := t3 - 2*t2 + t
	h01 := -2*t3 + 3*t2
	h11 := t3 - t2
	return h00*c.d[i] + h10*h*c.m[i] + h01*c.d[i+1] + h11*h*c.m[i+1]
}

// SpeedupVs returns the frequency ratio f(v)/f(ref).
func (c *DelayCurve) SpeedupVs(v, ref float64) float64 {
	return c.Delay(ref) / c.Delay(v)
}

// default28nm is the paper's Figure 5 curve, anchored to the published
// Bitcoin server operating points (830 MHz @ 1.00 V, 465 MHz @ 0.62 V,
// 202 MHz @ 0.49 V, 70 MHz @ 0.40 V) and to the Litecoin points, with
// alpha-power-law infill between anchors and a gentle tail above nominal.
var default28nm = mustCurve(map[float64]float64{
	0.40: 830.0 / 70.0, // 11.857
	0.45: 6.60,
	0.49: 830.0 / 202.0, // 4.109
	0.55: 2.55,
	0.62: 830.0 / 465.0, // 1.785
	0.70: 1.45,
	0.80: 1.25,
	0.91: 1.09,
	1.00: 1.00,
	1.10: 0.94,
	1.25: 0.87,
	1.40: 0.82,
	1.50: 0.80,
})

func mustCurve(anchors map[float64]float64) *DelayCurve {
	c, err := NewDelayCurve(anchors)
	if err != nil {
		panic(err)
	}
	return c
}

// Default28nm returns the calibrated UMC 28nm logic delay–voltage curve
// used throughout the paper (Figure 5).
func Default28nm() *DelayCurve { return default28nm }
