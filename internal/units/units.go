// Package units provides the physical quantities, conversion constants and
// small numeric helpers shared by every subsystem of the ASIC Cloud design
// space explorer.
//
// All models in this repository work in SI units internally (watts, metres,
// kelvins, pascals, cubic metres per second) with two deliberate exceptions
// that follow the paper's own conventions: silicon area is carried in mm²
// and money in US dollars.
package units

import (
	"fmt"
	"math"
)

// Physical constants used by the thermal models.
const (
	// AirDensity is the density of air in kg/m³ at roughly 35 °C, the mean
	// temperature inside a 1U duct fed with 30 °C inlet air.
	AirDensity = 1.145

	// AirSpecificHeat is the specific heat capacity of air in J/(kg·K).
	AirSpecificHeat = 1007

	// AirConductivity is the thermal conductivity of air in W/(m·K).
	AirConductivity = 0.0264

	// AirViscosity is the kinematic viscosity of air in m²/s at ~35 °C.
	AirViscosity = 1.655e-5

	// AirPrandtl is the Prandtl number of air (dimensionless).
	AirPrandtl = 0.72
)

// Time conversion constants.
const (
	// HoursPerYear is the number of hours in a (non-leap) year.
	HoursPerYear = 24 * 365

	// SecondsPerHour is the number of seconds in an hour.
	SecondsPerHour = 3600
)

// WattsPerKilowatt converts kW-denominated prices (e.g. $/kWh) into the
// per-watt terms the TCO model works in.
const WattsPerKilowatt = 1000.0

// GramsPerKilogram converts gram-denominated intensities (e.g. the
// g CO2e/kWh figures grid operators publish) into the kilogram terms
// the carbon model works in.
const GramsPerKilogram = 1000.0

// GToKg converts a mass in g to kg.
func GToKg(g float64) float64 { return g / GramsPerKilogram }

// MM2ToM2 converts an area in mm² to m².
func MM2ToM2(mm2 float64) float64 { return mm2 * 1e-6 }

// UM2ToMM2 converts an area in µm² (the natural unit of per-gate and
// per-bitcell layout densities) to mm².
func UM2ToMM2(um2 float64) float64 { return um2 * 1e-6 }

// WToMW converts watts to megawatts, the scale datacenter provisioning is
// quoted in.
func WToMW(w float64) float64 { return w * 1e-6 }

// HzToMHz converts a frequency in Hz to MHz.
func HzToMHz(hz float64) float64 { return hz * 1e-6 }

// GHsToHs converts a hash rate in GH/s to H/s.
func GHsToHs(ghs float64) float64 { return ghs * 1e9 }

// HsToGHs converts a hash rate in H/s to GH/s.
func HsToGHs(hs float64) float64 { return hs * 1e-9 }

// HsToMHs converts a hash rate in H/s to MH/s.
func HsToMHs(hs float64) float64 { return hs * 1e-6 }

// MToMM converts a length in m to mm.
func MToMM(m float64) float64 { return m * 1e3 }

// Million is a dimensionless count scale for display ("$M", "millions of
// GH/s"); it is not a unit conversion.
const Million = 1e6

// ApproxEqual reports whether a and b agree to within a relative tolerance
// tol (or an absolute tolerance tol when both values are near zero).
func ApproxEqual(a, b, tol float64) bool {
	//lint:ignore floatcmp bitwise-equality fast path of the approx comparator itself
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	largest := math.Max(math.Abs(a), math.Abs(b))
	if largest < 1 {
		return diff <= tol
	}
	return diff <= tol*largest
}

// ApproxZero reports whether v is within the absolute tolerance tol of
// zero. Use it instead of `v == 0` on computed quantities; keep exact
// comparison only for sentinel values that were assigned, never computed.
func ApproxZero(v, tol float64) bool {
	return math.Abs(v) <= tol
}

// Bisect finds x in [lo, hi] with f(x) ≈ 0 by bisection. f must be
// monotonic across the interval with a sign change; if f has the same sign
// at both endpoints, the endpoint with the smaller |f| is returned and
// ok is false.
func Bisect(f func(float64) float64, lo, hi, tol float64, maxIter int) (x float64, ok bool) {
	flo, fhi := f(lo), f(hi)
	//lint:ignore floatcmp exact root at the bracket endpoint terminates bisection early
	if flo == 0 {
		return lo, true
	}
	//lint:ignore floatcmp exact root at the bracket endpoint terminates bisection early
	if fhi == 0 {
		return hi, true
	}
	if flo*fhi > 0 {
		if math.Abs(flo) < math.Abs(fhi) {
			return lo, false
		}
		return hi, false
	}
	for i := 0; i < maxIter; i++ {
		mid := (lo + hi) / 2
		fm := f(mid)
		//lint:ignore floatcmp exact root terminates bisection; interval width handles the rest
		if fm == 0 || (hi-lo)/2 < tol {
			return mid, true
		}
		if flo*fm < 0 {
			hi = mid
		} else {
			lo, flo = mid, fm
		}
	}
	return (lo + hi) / 2, true
}

// Money formats a dollar amount with thousands separators, e.g. "$12,686".
func Money(v float64) string {
	neg := v < 0
	if neg {
		v = -v
	}
	whole := int64(math.Round(v))
	s := group(whole)
	if neg {
		return "-$" + s
	}
	return "$" + s
}

func group(v int64) string {
	s := fmt.Sprintf("%d", v)
	n := len(s)
	if n <= 3 {
		return s
	}
	var out []byte
	for i, c := range []byte(s) {
		if i > 0 && (n-i)%3 == 0 {
			out = append(out, ',')
		}
		out = append(out, c)
	}
	return string(out)
}
