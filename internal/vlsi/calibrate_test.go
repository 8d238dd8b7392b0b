package vlsi

import (
	"math"
	"testing"
)

func TestNodeScaling40nm(t *testing.T) {
	base := Spec{
		Name: "x", PerfUnit: "GH/s", Area: 0.66,
		NominalVoltage: 1.0, NominalFreq: 830e6, NominalPerf: 0.83,
		NominalPowerDensity: 2.0, LeakageFraction: 0.01, VoltageScalable: true,
	}
	ported, err := To40nmFrom28nm().Apply(base, "x-40nm")
	if err != nil {
		t.Fatal(err)
	}
	if ported.Name != "x-40nm" {
		t.Error("name not applied")
	}
	if math.Abs(ported.Area-1.32) > 1e-12 {
		t.Errorf("area = %v, want 1.32", ported.Area)
	}
	if math.Abs(ported.NominalPerf-0.83*0.75) > 1e-12 {
		t.Error("performance should follow frequency")
	}
	// Power density: ×1.35 energy ×0.75 freq ÷2.0 area ≈ ×0.506.
	if math.Abs(ported.NominalPowerDensity-2.0*1.35*0.75/2.0) > 1e-12 {
		t.Errorf("density = %v", ported.NominalPowerDensity)
	}
	// Energy per op worsened by exactly the energy factor.
	baseE := base.NominalPowerDensity * base.Area / base.NominalPerf
	portE := ported.NominalPowerDensity * ported.Area / ported.NominalPerf
	if math.Abs(portE/baseE-1.35) > 1e-9 {
		t.Errorf("energy/op ratio = %v, want 1.35", portE/baseE)
	}
}

func TestNodeScalingForward(t *testing.T) {
	base := Spec{
		Name: "x", PerfUnit: "GH/s", Area: 0.66,
		NominalVoltage: 1.0, NominalFreq: 830e6, NominalPerf: 0.83,
		NominalPowerDensity: 2.0, LeakageFraction: 0.01, VoltageScalable: true,
	}
	fwd, err := NodeScaling{AreaFactor: 0.55, FreqFactor: 1.20, EnergyFactor: 0.75}.Apply(base, "x-20nm")
	if err != nil {
		t.Fatal(err)
	}
	if fwd.Area >= base.Area {
		t.Error("forward port should shrink")
	}
	if fwd.NominalPerf <= base.NominalPerf {
		t.Error("forward port should speed up")
	}
	bad := NodeScaling{AreaFactor: 0}
	if _, err := bad.Apply(base, "y"); err == nil {
		t.Error("zero factor should fail")
	}
	invalid := base
	invalid.Area = 0
	if _, err := To40nmFrom28nm().Apply(invalid, "y"); err == nil {
		t.Error("invalid spec should fail")
	}
}
