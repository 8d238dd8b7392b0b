package cnn

import (
	"fmt"
	"sort"

	"asiccloud/internal/interconnect"
	"asiccloud/internal/pareto"
	"asiccloud/internal/server"
	"asiccloud/internal/tco"
	"asiccloud/internal/vlsi"
)

// NodeSpec is one DaDianNao node as an RCA: a 28nm eDRAM-based machine
// learning accelerator running at a fixed 0.9 V / 606 MHz. "In this
// scenario, we assume that we do not have control over the DDN
// micro-architecture, and thus that voltage scaling is not possible."
// Calibration: 235 TOps/s and ~1.8 kW for two 64-node systems per server
// (Table 6) give 1.836 TOps/s and ~7.5 W core per node on 51.5 mm².
func NodeSpec() vlsi.Spec {
	return vlsi.Spec{
		Name:                "ddn-node",
		PerfUnit:            "TOps/s",
		Area:                51.5,
		NominalVoltage:      0.9,
		NominalFreq:         606e6,
		NominalPerf:         1.836,
		NominalPowerDensity: 7.5 / 51.5,
		LeakageFraction:     0.10, // eDRAM refresh and retention
		VoltageScalable:     false,
	}
}

// HyperTransport per-PHY costs on the DDN die.
const (
	htPHYAreaMM2 = 3.5
	htPHYPowerW  = 2.4
	htPHYPins    = 76
)

// ServerConfig builds the server configuration for a chip shape and a
// per-lane chip count. The performance cap encodes that "performance is
// only dependent on the number of 8x8 DDN systems": surplus chips or
// partial-chip nodes are dark.
func ServerConfig(shape ChipShape, chipsPerLane int) (server.Config, int, error) {
	if err := shape.Validate(); err != nil {
		return server.Config{}, 0, err
	}
	if chipsPerLane <= 0 {
		return server.Config{}, 0, fmt.Errorf("cnn: chips per lane must be positive")
	}
	cfg := server.Default(NodeSpec())
	cfg.Voltage = 0.9
	cfg.ChipsPerLane = chipsPerLane
	cfg.RCAsPerChip = shape.Nodes()
	cfg.ExtraAreaPerChip = float64(shape.HTLinksPerChip()) * htPHYAreaMM2
	cfg.ExtraFixedPowerPerChip = float64(shape.HTLinksPerChip()) * htPHYPowerW
	cfg.ExtraPinsPerChip = shape.HTLinksPerChip() * htPHYPins

	totalChips := chipsPerLane * cfg.Lanes
	systems := totalChips * 1 / shape.ChipsPerSystem()
	const maxSystems = 3 // "Up to 3 full 64-node DDN systems fit in a server"
	if systems > maxSystems {
		systems = maxSystems
	}
	if systems < 1 {
		return server.Config{}, 0, fmt.Errorf("cnn: %d chips of %v cannot form a full 8x8 system",
			totalChips, shape)
	}
	// Cap server throughput at the complete systems' node count.
	perfPerServer := float64(systems*NodesPerSystem) * NodeSpec().NominalPerf
	cfg.PerfCapPerChip = perfPerServer / float64(totalChips)

	cfg.Network = &interconnect.Network{
		OnPCB:      interconnect.SPI, // control plane; HT is in the extras
		OnPCBLinks: totalChips,
		OffPCB:     interconnect.GigE10,
		OffLinks:   systems,
		Control:    interconnect.ControlFPGA,
	}
	return cfg, systems, nil
}

// Evaluation pairs a server evaluation with its CNN structure.
type Evaluation struct {
	Shape   ChipShape
	Systems int
	Eval    server.Evaluation
	TCO     tco.Breakdown
}

// TCOPerOp is TCO per TOps/s.
func (e Evaluation) TCOPerOp() float64 { return e.TCO.Total() }

// Explore evaluates the paper's twelve chip shapes (Figure 17), trying
// every feasible packing of chips into the server's lanes and keeping
// the TCO-best packing per shape.
func Explore(model tco.Model) ([]Evaluation, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	var out []Evaluation
	for _, shape := range PaperShapes() {
		var best *Evaluation
		for chipsPerLane := 1; chipsPerLane <= 20; chipsPerLane++ {
			cfg, systems, err := ServerConfig(shape, chipsPerLane)
			if err != nil {
				continue
			}
			ev, err := server.Evaluate(cfg)
			if err != nil {
				continue
			}
			b := model.Of(ev.DollarsPerOp, ev.WattsPerOp)
			cand := Evaluation{Shape: shape, Systems: systems, Eval: ev, TCO: b}
			if best == nil || cand.TCOPerOp() < best.TCOPerOp() {
				c := cand
				best = &c
			}
		}
		if best != nil {
			out = append(out, *best)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cnn: no feasible configuration")
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TCOPerOp() < out[j].TCOPerOp() })
	return out, nil
}

// Optima extracts the energy-, cost- and TCO-optimal designs from an
// Explore result (the columns of Table 6).
func Optima(evals []Evaluation) (energy, cost, tcoOpt Evaluation) {
	if i := pareto.ArgMin(evals, func(e Evaluation) float64 { return e.Eval.WattsPerOp }); i >= 0 {
		energy = evals[i]
	}
	if i := pareto.ArgMin(evals, func(e Evaluation) float64 { return e.Eval.DollarsPerOp }); i >= 0 {
		cost = evals[i]
	}
	if i := pareto.ArgMin(evals, func(e Evaluation) float64 { return e.TCOPerOp() }); i >= 0 {
		tcoOpt = evals[i]
	}
	return energy, cost, tcoOpt
}
