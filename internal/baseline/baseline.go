// Package baseline holds the CPU and GPU cloud reference machines of the
// paper's "Cloud Deathmatch" (Table 7), and computes the TCO-per-op/s
// comparison between CPU Clouds, GPU Clouds and ASIC Clouds.
package baseline

import (
	"fmt"

	"asiccloud/internal/tco"
)

// Machine is one row of Table 7: a cloud node with published performance,
// power and price.
type Machine struct {
	Application string
	PerfMetric  string // "GH/s", "MH/s", "Kfps", "TOps/s"
	Cloud       string // "CPU", "GPU", "ASIC"
	Hardware    string
	Perf        float64 // in PerfMetric units
	PowerW      float64
	CostUSD     float64
	LifeYears   float64
}

// Validate checks the row.
func (m Machine) Validate() error {
	if m.Perf <= 0 || m.PowerW <= 0 || m.CostUSD <= 0 || m.LifeYears <= 0 {
		return fmt.Errorf("baseline: %s %s has non-positive specs", m.Cloud, m.Hardware)
	}
	return nil
}

// PowerPerOp is W per op/s.
func (m Machine) PowerPerOp() float64 { return m.PowerW / m.Perf }

// CostPerOp is $ per op/s.
func (m Machine) CostPerOp() float64 { return m.CostUSD / m.Perf }

// TCOPerOp evaluates the machine under the lifetime-matched TCO model.
func (m Machine) TCOPerOp() float64 {
	model := tco.ForLifetime(m.LifeYears)
	return model.Of(m.CostPerOp(), m.PowerPerOp()).Total()
}

// Table7 returns the paper's published CPU and GPU reference rows. The
// ASIC rows are produced by this repository's own explorer, so they are
// not hard-coded here; see the deathmatch benchmark.
func Table7() []Machine {
	return []Machine{
		{Application: "Bitcoin", PerfMetric: "GH/s", Cloud: "CPU",
			Hardware: "Core i7 3930K (2x)", Perf: 0.13, PowerW: 310, CostUSD: 1272, LifeYears: 3},
		{Application: "Bitcoin", PerfMetric: "GH/s", Cloud: "GPU",
			Hardware: "AMD 7970", Perf: 0.68, PowerW: 285, CostUSD: 400, LifeYears: 3},
		{Application: "Litecoin", PerfMetric: "MH/s", Cloud: "CPU",
			Hardware: "Core i7 3930K (2x)", Perf: 0.2, PowerW: 400, CostUSD: 1272, LifeYears: 3},
		{Application: "Litecoin", PerfMetric: "MH/s", Cloud: "GPU",
			Hardware: "AMD 7970", Perf: 0.63, PowerW: 285, CostUSD: 400, LifeYears: 3},
		{Application: "Video Transcode", PerfMetric: "Kfps", Cloud: "CPU",
			Hardware: "Core i7 4790K", Perf: 0.0018, PowerW: 155, CostUSD: 725, LifeYears: 3},
		{Application: "Conv Neural Net", PerfMetric: "TOps/s", Cloud: "GPU",
			Hardware: "NVIDIA Tesla K20X", Perf: 0.26, PowerW: 225, CostUSD: 3300, LifeYears: 3},
	}
}

// Matchup is one deathmatch comparison.
type Matchup struct {
	Application string
	Baseline    Machine
	ASICTCO     float64 // ASIC TCO per op/s
	Advantage   float64 // baseline TCO/op over ASIC TCO/op
}

// Deathmatch compares an ASIC cloud's TCO per op/s against a baseline.
func Deathmatch(m Machine, asicTCOPerOp float64) (Matchup, error) {
	if err := m.Validate(); err != nil {
		return Matchup{}, err
	}
	if asicTCOPerOp <= 0 {
		return Matchup{}, fmt.Errorf("baseline: ASIC TCO must be positive")
	}
	return Matchup{
		Application: m.Application,
		Baseline:    m,
		ASICTCO:     asicTCOPerOp,
		Advantage:   m.TCOPerOp() / asicTCOPerOp,
	}, nil
}
