package vlsi

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// bitcoinLike is the paper's published Bitcoin RCA: 0.66 mm², 830 MHz and
// 2 W/mm² at 1.0 V, one hash per cycle (0.83 GH/s), no SRAM.
func bitcoinLike() Spec {
	return Spec{
		Name:                "bitcoin-test",
		PerfUnit:            "GH/s",
		Area:                0.66,
		NominalVoltage:      1.0,
		NominalFreq:         830e6,
		NominalPerf:         0.83,
		NominalPowerDensity: 2.0,
		LeakageFraction:     0.05,
		VoltageScalable:     true,
	}
}

func TestSpecValidate(t *testing.T) {
	good := bitcoinLike()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []func(*Spec){
		func(s *Spec) { s.Area = 0 },
		func(s *Spec) { s.NominalVoltage = -1 },
		func(s *Spec) { s.NominalFreq = 0 },
		func(s *Spec) { s.NominalPerf = 0 },
		func(s *Spec) { s.NominalPowerDensity = 0 },
		func(s *Spec) { s.LeakageFraction = 1.0 },
		func(s *Spec) { s.SRAMPowerFraction = 1.5 },
		func(s *Spec) { s.SRAMVmin = -0.1 },
	}
	for i, mutate := range bad {
		s := bitcoinLike()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d not rejected", i)
		}
	}
}

func TestNominalPoint(t *testing.T) {
	s := bitcoinLike()
	op, err := s.At(s.NominalVoltage)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(op.Freq-830e6) > 1 {
		t.Errorf("nominal freq = %v, want 830 MHz", op.Freq)
	}
	if math.Abs(op.PowerDensity-2.0) > 1e-9 {
		t.Errorf("nominal power density = %v, want 2.0", op.PowerDensity)
	}
	if math.Abs(op.Perf-0.83) > 1e-12 {
		t.Errorf("nominal perf = %v, want 0.83", op.Perf)
	}
	if op.SRAMPower != 0 || op.SRAMVoltage != 0 {
		t.Errorf("SRAM-free design has SRAM power %v at %v V", op.SRAMPower, op.SRAMVoltage)
	}
}

func TestVoltageScalingMatchesPaperPoints(t *testing.T) {
	s := bitcoinLike()
	// Paper Table 3: TCO-optimal Bitcoin runs 202 MHz at 0.49 V.
	op, err := s.At(0.49)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(op.Freq-202e6)/202e6 > 1e-9 {
		t.Errorf("freq at 0.49 V = %v, want 202 MHz", op.Freq)
	}
	// Performance scales with frequency.
	wantPerf := 0.83 * 202.0 / 830.0
	if math.Abs(op.Perf-wantPerf)/wantPerf > 1e-9 {
		t.Errorf("perf at 0.49 V = %v, want %v", op.Perf, wantPerf)
	}
}

func TestPowerScalesSuperlinearly(t *testing.T) {
	s := bitcoinLike()
	low, err := s.At(0.5)
	if err != nil {
		t.Fatal(err)
	}
	high, err := s.At(1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Dynamic power ~ V²f: halving V should cut power by far more than 2x.
	if high.LogicPower+high.SRAMPower < 4*(low.LogicPower+low.SRAMPower) {
		t.Errorf("power at 1.0 V (%v) should be >4x power at 0.5 V (%v)",
			high.LogicPower+high.SRAMPower, low.LogicPower+low.SRAMPower)
	}
	// But performance drops too; energy per op must IMPROVE at low voltage.
	eLow := (low.LogicPower + low.SRAMPower) / low.Perf
	eHigh := (high.LogicPower + high.SRAMPower) / high.Perf
	if eLow >= eHigh {
		t.Errorf("energy/op at 0.5 V (%v) should beat 1.0 V (%v)", eLow, eHigh)
	}
}

func TestPowerMonotoneInVoltageProperty(t *testing.T) {
	s := bitcoinLike()
	f := func(a, b uint16) bool {
		v1 := 0.40 + 1.10*float64(a)/65535
		v2 := 0.40 + 1.10*float64(b)/65535
		if v1 > v2 {
			v1, v2 = v2, v1
		}
		p1, err1 := s.At(v1)
		p2, err2 := s.At(v2)
		if err1 != nil || err2 != nil {
			return false
		}
		return p1.LogicPower+p1.SRAMPower <= p2.LogicPower+p2.SRAMPower+1e-12 &&
			p1.Perf <= p2.Perf+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSRAMRailClampsAtVmin(t *testing.T) {
	s := bitcoinLike()
	s.SRAMPowerFraction = 0.6
	s.SRAMVmin = 0.9
	op, err := s.At(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if op.SRAMVoltage != 0.9 {
		t.Errorf("SRAM rail = %v V, want clamp at 0.9", op.SRAMVoltage)
	}
	opHigh, err := s.At(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if opHigh.SRAMVoltage != 0.95 {
		t.Errorf("SRAM rail above Vmin = %v V, want 0.95", opHigh.SRAMVoltage)
	}
	// With the SRAM rail pinned, scaling logic voltage down saves less
	// energy than it would for a pure-logic design.
	pure := bitcoinLike()
	pOp, _ := pure.At(0.5)
	pNom, _ := pure.At(pure.NominalVoltage)
	sNom, _ := s.At(s.NominalVoltage)
	sramSaving := (op.LogicPower + op.SRAMPower) / (sNom.LogicPower + sNom.SRAMPower)
	logicSaving := (pOp.LogicPower + pOp.SRAMPower) / (pNom.LogicPower + pNom.SRAMPower)
	if sramSaving <= logicSaving {
		t.Errorf("SRAM-heavy design saved more (%v) than pure logic (%v)", sramSaving, logicSaving)
	}
}

func TestNonScalableRejectsOffNominal(t *testing.T) {
	s := bitcoinLike()
	s.VoltageScalable = false
	s.NominalVoltage = 0.9
	if _, err := s.At(0.8); !errors.Is(err, ErrNotScalable) {
		t.Errorf("expected ErrNotScalable, got %v", err)
	}
	if _, err := s.At(0.9); err != nil {
		t.Errorf("nominal point rejected: %v", err)
	}
	if s.MinVoltage() != 0.9 || s.MaxVoltage() != 0.9 {
		t.Errorf("voltage range = [%v, %v], want pinned at 0.9", s.MinVoltage(), s.MaxVoltage())
	}
}

func TestAtRejectsOutOfRange(t *testing.T) {
	s := bitcoinLike()
	if _, err := s.At(0.2); err == nil {
		t.Error("0.2 V should be rejected")
	}
	if _, err := s.At(1.8); err == nil {
		t.Error("1.8 V should be rejected")
	}
}

func TestLeakageOnlyScalesWithVoltage(t *testing.T) {
	// A 100%-leakage (pathological) design: power should scale linearly
	// in V, independent of frequency.
	s := bitcoinLike()
	s.LeakageFraction = 0.999999
	nom, err := s.At(s.NominalVoltage)
	if err != nil {
		t.Fatal(err)
	}
	op, err := s.At(0.5)
	if err != nil {
		t.Fatal(err)
	}
	ratio := (op.LogicPower + op.SRAMPower) / (nom.LogicPower + nom.SRAMPower)
	if math.Abs(ratio-0.5) > 0.01 {
		t.Errorf("pure-leakage power ratio at half voltage = %v, want ~0.5", ratio)
	}
}
