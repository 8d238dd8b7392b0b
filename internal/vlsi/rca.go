package vlsi

import (
	"errors"
	"fmt"

	"asiccloud/internal/units"
)

// Spec describes a replicated compute accelerator (RCA) as extracted from a
// placed-and-routed implementation: the "RCA Spec" box in the paper's
// Figure 4 evaluation flow. All densities are quoted at the nominal
// voltage and frequency.
type Spec struct {
	// Name identifies the accelerator, e.g. "bitcoin-sha256d".
	Name string

	// PerfUnit is the human unit for one op/s, e.g. "GH/s", "MH/s",
	// "Kfps", "TOps/s". Performance values below are in this unit.
	PerfUnit string

	// Area is the silicon area of one RCA instance in mm².
	Area float64

	// NominalVoltage is the library characterization voltage (1.0 V for
	// the UMC 28nm flow used in the paper).
	NominalVoltage float64

	// NominalFreq is the post-layout clock frequency in Hz at the
	// nominal voltage.
	NominalFreq float64

	// NominalPerf is the throughput of one RCA at NominalFreq, in
	// PerfUnit.
	NominalPerf float64

	// NominalPowerDensity is total power density in W/mm² at the nominal
	// voltage and frequency, including leakage and SRAM.
	NominalPowerDensity float64

	// LeakageFraction is the fraction of nominal power that is leakage.
	LeakageFraction float64

	// SRAMPowerFraction is the fraction of nominal power drawn on the
	// SRAM rail. SRAM sits on a separate rail whose voltage cannot fall
	// below SRAMVmin, reflecting the difficulty of scaling SRAM supply.
	SRAMPowerFraction float64

	// SRAMVmin is the minimum SRAM rail voltage in V. Zero means the
	// design has no SRAM rail.
	SRAMVmin float64

	// VoltageScalable is false for third-party IP whose micro-architecture
	// we do not control (the paper's DaDianNao CNN chips); such RCAs run
	// only at their nominal point.
	VoltageScalable bool

	// Curve is the logic delay–voltage curve; nil selects Default28nm.
	Curve *DelayCurve
}

// Validate reports whether the spec is physically meaningful. A spec
// that fails validation never enters a sweep — the engine validates it
// before building the grid, and server.NewColumn once per column — so
// the error formatting below is off the per-configuration path.
func (s *Spec) Validate() error {
	switch {
	case s.Area <= 0:
		return fmt.Errorf("vlsi: %s: RCA area must be positive", s.Name)
	case s.NominalVoltage <= 0:
		return fmt.Errorf("vlsi: %s: nominal voltage must be positive", s.Name)
	case s.NominalFreq <= 0:
		return fmt.Errorf("vlsi: %s: nominal frequency must be positive", s.Name)
	case s.NominalPerf <= 0:
		return fmt.Errorf("vlsi: %s: nominal performance must be positive", s.Name)
	case s.NominalPowerDensity <= 0:
		return fmt.Errorf("vlsi: %s: nominal power density must be positive", s.Name)
	case s.LeakageFraction < 0 || s.LeakageFraction >= 1:
		return fmt.Errorf("vlsi: %s: leakage fraction %v out of [0,1)", s.Name, s.LeakageFraction)
	case s.SRAMPowerFraction < 0 || s.SRAMPowerFraction > 1:
		return fmt.Errorf("vlsi: %s: SRAM power fraction %v out of [0,1]", s.Name, s.SRAMPowerFraction)
	case s.SRAMVmin < 0:
		return fmt.Errorf("vlsi: %s: SRAM Vmin must be >= 0", s.Name)
	}
	return nil
}

// curve returns the delay curve, defaulting to the 28nm model.
func (s *Spec) curve() *DelayCurve {
	if s.Curve != nil {
		return s.Curve
	}
	return default28nm
}

// MinVoltage is the lowest logic voltage this RCA can operate at.
func (s *Spec) MinVoltage() float64 {
	if !s.VoltageScalable {
		return s.NominalVoltage
	}
	return s.curve().Min()
}

// MaxVoltage is the highest logic voltage considered for this RCA.
func (s *Spec) MaxVoltage() float64 {
	if !s.VoltageScalable {
		return s.NominalVoltage
	}
	return s.curve().Max()
}

// OperatingPoint is the state of one RCA at a chosen logic voltage: the
// output of the paper's voltage scaling model, connecting W/mm² and
// ops/s/mm² (Figure 4, "Voltage scaling model").
type OperatingPoint struct {
	Voltage      float64 // logic rail voltage (V)
	SRAMVoltage  float64 // SRAM rail voltage (V); 0 if no SRAM rail
	Freq         float64 // clock frequency (Hz)
	Perf         float64 // throughput of one RCA (PerfUnit)
	LogicPower   float64 // logic rail power of one RCA (W)
	SRAMPower    float64 // SRAM rail power of one RCA (W)
	PowerDensity float64 // total W/mm²
	PerfDensity  float64 // PerfUnit per mm²
}

// ErrNotScalable is returned when a voltage other than nominal is requested
// for an RCA that does not support voltage scaling.
var ErrNotScalable = errors.New("vlsi: RCA does not support voltage scaling")

// At evaluates the RCA at logic voltage v. The result depends on the
// spec and v alone, so a sweep calls it once per grid voltage, not per
// configuration; each call validates the spec.
//
// Dynamic power scales as V²·f with frequency following the delay curve;
// leakage scales linearly with V (the paper: "The dynamic power is
// evaluated by the new frequency and voltage while leakage is affected
// only by the voltage"). SRAM power is computed on its own rail clamped at
// SRAMVmin, with SRAM dynamic power still proportional to the logic clock.
func (s *Spec) At(v float64) (OperatingPoint, error) {
	if err := s.Validate(); err != nil {
		return OperatingPoint{}, err
	}
	if !s.VoltageScalable {
		// Tolerant match: sweep grids reconstruct voltages by repeated
		// addition, so the nominal point may differ in the last ulp.
		if !units.ApproxEqual(v, s.NominalVoltage, 1e-9) {
			return OperatingPoint{}, fmt.Errorf("%w: %s runs only at %.2f V", ErrNotScalable, s.Name, s.NominalVoltage)
		}
	}
	c := s.curve()
	if v < c.Min() || v > c.Max() {
		return OperatingPoint{}, fmt.Errorf("vlsi: %s: voltage %.2f V outside [%.2f, %.2f]", s.Name, v, c.Min(), c.Max())
	}

	fRatio := c.SpeedupVs(v, s.NominalVoltage)
	freq := s.NominalFreq * fRatio
	vr := v / s.NominalVoltage

	nomPower := s.NominalPowerDensity * s.Area
	sramNom := nomPower * s.SRAMPowerFraction
	logicNom := nomPower - sramNom

	logicDynNom := logicNom * (1 - s.LeakageFraction)
	logicLeakNom := logicNom * s.LeakageFraction
	logicPower := logicDynNom*vr*vr*fRatio + logicLeakNom*vr

	var sramPower, vsram float64
	if sramNom > 0 {
		vsram = v
		if s.SRAMVmin > 0 && vsram < s.SRAMVmin {
			vsram = s.SRAMVmin
		}
		svr := vsram / s.NominalVoltage
		sramDynNom := sramNom * (1 - s.LeakageFraction)
		sramLeakNom := sramNom * s.LeakageFraction
		// SRAM switching still happens once per logic clock.
		sramPower = sramDynNom*svr*svr*fRatio + sramLeakNom*svr
	}

	perf := s.NominalPerf * fRatio
	total := logicPower + sramPower
	return OperatingPoint{
		Voltage:      v,
		SRAMVoltage:  vsram,
		Freq:         freq,
		Perf:         perf,
		LogicPower:   logicPower,
		SRAMPower:    sramPower,
		PowerDensity: total / s.Area,
		PerfDensity:  perf / s.Area,
	}, nil
}
