package vlsi

import "fmt"

// NodeScaling holds first-order inter-node scaling factors for porting an
// RCA spec between process generations (the §12 discussion of building on
// 40 nm instead of 28 nm).
type NodeScaling struct {
	// AreaFactor multiplies RCA area (≈2.0 per full node backwards).
	AreaFactor float64
	// FreqFactor multiplies clock frequency (≈0.75 per node backwards).
	FreqFactor float64
	// EnergyFactor multiplies energy per operation (≈1.35 per node
	// backwards).
	EnergyFactor float64
}

// To40nmFrom28nm is the standard one-node-back scaling.
func To40nmFrom28nm() NodeScaling {
	return NodeScaling{AreaFactor: 2.0, FreqFactor: 0.75, EnergyFactor: 1.35}
}

// Apply ports a spec to the scaled node. Performance follows frequency;
// power density follows energy × frequency over area.
func (s NodeScaling) Apply(spec Spec, name string) (Spec, error) {
	if s.AreaFactor <= 0 || s.FreqFactor <= 0 || s.EnergyFactor <= 0 {
		return Spec{}, fmt.Errorf("vlsi: scaling factors must be positive")
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	out := spec
	out.Name = name
	out.Area *= s.AreaFactor
	out.NominalFreq *= s.FreqFactor
	out.NominalPerf *= s.FreqFactor
	// Power = (energy/op)·(ops/s); density divides by the new area.
	out.NominalPowerDensity = spec.NominalPowerDensity * s.EnergyFactor * s.FreqFactor / s.AreaFactor
	return out, out.Validate()
}
