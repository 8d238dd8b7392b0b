package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
)

// hashVersion is folded into every request hash. Bump it whenever the
// canonical encoding, the engine's result schema, or the models behind
// them change meaning, so a stale cache entry can never be mistaken for
// the answer to a new question. (Within one process this is belt and
// braces — the cache dies with the daemon — but it keeps the hash
// stable enough to log and compare across runs of the same build.)
// TestHashSchema is the gate: it fails when a Canonical field does not
// reach the hash, or when the digest it pins changes while hashVersion
// does not.
// v2: the objective and carbon-model fields joined the canonical
// encoding (and the result schema grew the carbon axis).
const hashVersion = "asiccloudd/v2"

// fstr formats a float for the canonical encoding: 'g' with the
// shortest round-trip precision, so 0.5, 0.50 and 5e-1 — equal float64s
// however they were spelled in JSON — encode identically, while any two
// distinct float64 values encode distinctly.
func fstr(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Hash returns the canonical SHA-256 of the request as lowercase hex.
// It is a pure function of the Canonical value: every field that can
// change the engine's result is written to the digest in a fixed order
// with fixed formatting, and nothing else is. Execution options
// (timeouts, worker counts) deliberately stay out.
//
//asic:canonical
func (c Canonical) Hash() string {
	h := sha256.New()
	// fmt.Fprintf on a hash.Hash cannot fail (Write never returns an
	// error by contract), so the error returns are not checked.
	fmt.Fprintf(h, "%s\napp=%s\n", hashVersion, c.App)
	fmt.Fprintf(h, "rca=%s|%s|%s|%s|%s|%s|%s|%s|%s|%s|%t\n",
		c.RCA.Name, c.RCA.PerfUnit,
		fstr(c.RCA.Area), fstr(c.RCA.NominalVoltage), fstr(c.RCA.NominalFreq),
		fstr(c.RCA.NominalPerf), fstr(c.RCA.NominalPowerDensity),
		fstr(c.RCA.LeakageFraction), fstr(c.RCA.SRAMPowerFraction),
		fstr(c.RCA.SRAMVmin), c.RCA.VoltageScalable)
	writeFloats(h, "voltages_v", c.Voltages)
	writeFloats(h, "silicon_per_lane_mm2", c.SiliconPerLane)
	writeInts(h, "chips_per_lane", c.ChipsPerLane)
	writeInts(h, "dram_per_asic", c.DRAMPerASIC)
	fmt.Fprintf(h, "dram_kind=%d\nstacked=%t\n", int(c.DRAMKind), c.Stacked)
	m := c.Model
	fmt.Fprintf(h, "tco=%s|%s|%s|%s|%s|%s|%s\n",
		fstr(m.ServerMarkup), fstr(m.InterestRate), fstr(m.LifetimeYears),
		fstr(m.DCCapexPerWattYear), fstr(m.DCAmortYears),
		fstr(m.ElectricityPerKWh), fstr(m.PUE))
	fmt.Fprintf(h, "objective=%s\n", c.Objective)
	cb := c.Carbon
	fmt.Fprintf(h, "carbon=%s|%s|%s|%s|%s|%s|%s|%s\n",
		fstr(cb.WaferKgCO2e), fstr(cb.PackageKgCO2e), fstr(cb.HeatSinkKgCO2e),
		fstr(cb.BoardKgCO2e), fstr(cb.GridGCO2ePerKWh), fstr(cb.PUE),
		fstr(cb.LifetimeYears), fstr(cb.Utilization))
	return hex.EncodeToString(h.Sum(nil))
}

// writeFloats appends one canonical "name=v1,v2,...\n" line.
//
//asic:canonical
func writeFloats(h io.Writer, name string, vs []float64) {
	fmt.Fprintf(h, "%s=", name)
	for i, v := range vs {
		if i > 0 {
			fmt.Fprintf(h, ",")
		}
		fmt.Fprintf(h, "%s", fstr(v))
	}
	fmt.Fprintf(h, "\n")
}

// writeInts appends one canonical "name=v1,v2,...\n" line.
//
//asic:canonical
func writeInts(h io.Writer, name string, vs []int) {
	fmt.Fprintf(h, "%s=", name)
	for i, v := range vs {
		if i > 0 {
			fmt.Fprintf(h, ",")
		}
		fmt.Fprintf(h, "%d", v)
	}
	fmt.Fprintf(h, "\n")
}
