// Package asiccloud is a Go reproduction of "ASIC Clouds: Specializing
// the Datacenter" (Magaki, Khazraee, Vega Gutierrez, Taylor — ISCA 2016):
// a TCO-driven design-space explorer for datacenters built from arrays of
// ASIC accelerators.
//
// Given a replicated compute accelerator (RCA) specification — area,
// performance and power density from a placed-and-routed implementation —
// the library jointly optimizes the ASIC (die size, RCAs per chip,
// operating voltage), the server (chips per lane, heat sinks, fans, DRAM
// complement, power delivery, PCB layout) and the datacenter economics,
// producing the Pareto frontier over $ per op/s and W per op/s and the
// TCO-optimal design.
//
// The package also ships the four ASIC Clouds the paper studies — Bitcoin
// (a from-scratch SHA-256 miner), Litecoin (from-scratch scrypt), video
// transcoding and a DaDianNao-style convolutional neural network cloud —
// plus the substrates they need: thermal simulation, power delivery, DRAM
// and interconnect models, an NRE/breakeven analyzer, and a TCP pool
// server for scale-out job distribution.
//
// Quick start:
//
//	rca := asiccloud.BitcoinRCA()
//	result, err := asiccloud.Explore(asiccloud.Sweep{Base: asiccloud.DefaultServer(rca)},
//		asiccloud.DefaultTCO())
//	fmt.Println(result.TCOOptimal.Describe())
//
// See the examples/ directory for complete programs and cmd/paperfigs for
// the code that regenerates every table and figure in the paper.
package asiccloud

import (
	"context"

	"asiccloud/internal/apps/bitcoin"
	"asiccloud/internal/apps/cnn"
	"asiccloud/internal/apps/litecoin"
	"asiccloud/internal/apps/xcode"
	"asiccloud/internal/asic"
	"asiccloud/internal/baseline"
	"asiccloud/internal/core"
	"asiccloud/internal/datacenter"
	"asiccloud/internal/nre"
	"asiccloud/internal/server"
	"asiccloud/internal/tco"
	"asiccloud/internal/vlsi"
	"asiccloud/internal/workload"
)

// Core modeling types.
type (
	// RCASpec describes a replicated compute accelerator as extracted
	// from a placed-and-routed implementation.
	RCASpec = vlsi.Spec
	// DelayCurve maps supply voltage to normalized critical-path delay.
	DelayCurve = vlsi.DelayCurve
	// Process is a fabrication node's economic model.
	Process = vlsi.Process
	// Netlist is the coarse structural input to the gate-level
	// estimator.
	Netlist = vlsi.Netlist
	// Technology holds standard-cell library coefficients for the
	// estimator.
	Technology = vlsi.Technology

	// ServerConfig is one candidate ASIC server design point.
	ServerConfig = server.Config
	// ServerEvaluation is the result of evaluating a design point.
	ServerEvaluation = server.Evaluation

	// Sweep describes a design-space search.
	Sweep = core.Sweep
	// Result is a completed exploration.
	Result = core.Result
	// DesignPoint is one feasible design with its TCO breakdown.
	DesignPoint = core.Point
	// DesignRow is the compact form Result.Points keeps each feasible
	// design in, in evaluation order (geometry by geometry, unstacked
	// before stacked, ascending voltage): its per-voltage evaluation,
	// TCO and carbon, and a read-only pointer to the record its
	// geometry's rows share. DesignRow.Point builds the DesignPoint.
	DesignRow = core.Row
	// Engine is a reusable exploration service with a thermal-plan
	// cache, context-aware execution and optional streaming (frontier-
	// only) sweeps.
	Engine = core.Engine
	// CacheStats snapshots an Engine's plan-cache effectiveness.
	CacheStats = core.CacheStats

	// TCOModel holds the datacenter economics.
	TCOModel = tco.Model
	// TCOBreakdown itemizes total cost of ownership.
	TCOBreakdown = tco.Breakdown

	// Rack and Deployment size machine rooms.
	Rack = datacenter.Rack
	// Deployment is a sized server fleet.
	Deployment = datacenter.Deployment

	// NREDecision is the go/no-go analysis for building an ASIC Cloud.
	NREDecision = nre.Decision

	// BaselineMachine is a CPU/GPU cloud reference node (Table 7).
	BaselineMachine = baseline.Machine
)

// Explore runs the brute-force design-space search (the paper's core
// methodology) and returns all feasible designs (as DesignRows), the
// Pareto frontier, and the energy-, cost- and TCO-optimal servers.
func Explore(sweep Sweep, model TCOModel) (Result, error) {
	return core.Explore(sweep, model)
}

// ExploreContext is Explore with cancellation and deadline support: on
// abort it returns promptly with a wrapped ctx error and the partial
// prune accounting.
func ExploreContext(ctx context.Context, sweep Sweep, model TCOModel) (Result, error) {
	return core.ExploreContext(ctx, sweep, model)
}

// NewEngine returns a reusable exploration engine. Successive sweeps
// over overlapping geometry grids — sensitivity studies, repeated
// interactive queries — reuse its memoized thermal plans instead of
// re-running heat-sink optimization.
func NewEngine() *Engine { return core.NewEngine(nil) }

// EvaluateServer runs the single-point Figure 4 evaluation flow.
func EvaluateServer(cfg ServerConfig) (ServerEvaluation, error) {
	return server.Evaluate(cfg)
}

// DefaultServer assembles the paper's standard 1U 8-lane server around
// an RCA.
func DefaultServer(rca RCASpec) ServerConfig { return server.Default(rca) }

// VoltageGrid returns voltages from lo to hi inclusive in the paper's
// 0.01 V sweep steps.
func VoltageGrid(lo, hi float64) []float64 { return core.VoltageGrid(lo, hi) }

// DefaultTCO returns the calibrated ASIC Cloud TCO model (1.5-year
// server life, $0.06/kWh energy).
func DefaultTCO() TCOModel { return tco.Default() }

// TCOForLifetime returns the TCO model with a different hardware
// lifetime (3 years for CPU/GPU baselines).
func TCOForLifetime(years float64) TCOModel { return tco.ForLifetime(years) }

// UMC28nm is the paper's fabrication process.
func UMC28nm() Process { return vlsi.UMC28nm() }

// Estimate28nm runs the gate-level estimator against the calibrated
// 28nm library model.
func Estimate28nm(n Netlist, freqHz, perfPerCycle float64, perfUnit string) (RCASpec, error) {
	return vlsi.Generic28nm().Estimate(n, freqHz, perfPerCycle, perfUnit)
}

// The four ASIC Clouds of the paper.

// BitcoinRCA is the published 28nm double-SHA256 accelerator.
func BitcoinRCA() RCASpec { return bitcoin.RCA() }

// LitecoinRCA is the SRAM-dominated scrypt accelerator.
func LitecoinRCA() RCASpec { return litecoin.RCA() }

// XcodeServer assembles the video-transcoding server with the given
// LPDDR3 devices per ASIC.
func XcodeServer(dramsPerASIC int) (ServerConfig, error) {
	return xcode.ServerConfig(dramsPerASIC)
}

// CNNExplore evaluates the paper's twelve DaDianNao chip partitions.
func CNNExplore(model TCOModel) ([]cnn.Evaluation, error) { return cnn.Explore(model) }

// EvaluateNRE applies the paper's two-for-two rule: should this
// computation move to an ASIC Cloud?
func EvaluateNRE(existingTCO, nreCost, projectedSpeedup float64) (NREDecision, error) {
	return nre.Evaluate(existingTCO, nreCost, projectedSpeedup)
}

// PlanDeployment sizes a fleet (servers, racks, megawatts) for an
// aggregate performance demand.
func PlanDeployment(rack Rack, perfPerServer, serverWallW, demand float64) (Deployment, error) {
	return datacenter.Plan(rack, perfPerServer, serverWallW, demand)
}

// DefaultRack is a 42U rack provisioned at 12 kW.
func DefaultRack() Rack { return datacenter.DefaultRack() }

// On-ASIC architecture simulation (paper Figure 2).
type (
	// ChipConfig parameterizes the cycle-level on-ASIC simulator: an
	// RCA mesh with an XY-routed NoC, a control plane and thermal
	// sensors.
	ChipConfig = asic.Config
	// Chip is a simulated ASIC.
	Chip = asic.Chip
	// ChipStats summarizes a chip simulation.
	ChipStats = asic.Stats
)

// NewChip builds a simulated ASIC.
func NewChip(cfg ChipConfig) (*Chip, error) { return asic.New(cfg) }

// DefaultChipConfig is a 4×4 RCA mesh resembling a mid-size mining chip.
func DefaultChipConfig() ChipConfig { return asic.DefaultConfig() }

// Workload modeling (planet-scale service traffic).
type (
	// TrafficGenerator produces diurnal Poisson arrivals with
	// log-normal service demands.
	TrafficGenerator = workload.Generator
	// FleetResult summarizes a fleet queueing simulation.
	FleetResult = workload.FleetResult
)

// DefaultTraffic resembles a transcoding front door (100 jobs/s, ±60%
// diurnal swing, ~4 s mean service).
func DefaultTraffic() TrafficGenerator { return workload.DefaultGenerator() }

// ProvisionForLatency finds the smallest fleet meeting a P99 waiting-time
// target under the given trace — the latency-aware counterpart of
// PlanDeployment.
func ProvisionForLatency(jobs []workload.Job, speedup, targetP99 float64, maxServers int) (FleetResult, error) {
	return workload.ProvisionForLatency(jobs, speedup, targetP99, maxServers)
}

// FindTCOOptimal returns the TCO-optimal design: the TCOOptimal of
// one streaming sweep, so it equals Explore's by construction.
func FindTCOOptimal(sweep Sweep, model TCOModel) (DesignPoint, error) {
	return core.FindTCOOptimal(sweep, model)
}
