// Package server implements the paper's ASIC Server evaluation flow
// (Figure 4): given an RCA spec, an operating voltage and a server
// organization (chips per lane, silicon per lane, lanes, DRAM complement,
// network), it composes the vlsi, thermal, power, dram and interconnect
// substrates into a complete 1U server and reports performance, wall
// power, an itemized bill of materials, and the two Pareto metrics —
// $ per op/s and W per op/s.
package server

import (
	"errors"
	"fmt"

	"asiccloud/internal/dram"
	"asiccloud/internal/interconnect"
	"asiccloud/internal/power"
	"asiccloud/internal/thermal"
	"asiccloud/internal/vlsi"
)

// Config describes one candidate ASIC server design point.
type Config struct {
	RCA     vlsi.Spec
	Process vlsi.Process
	Package vlsi.PackageModel

	// Voltage is the logic core voltage for this design point.
	Voltage float64

	// ChipsPerLane and Lanes set the server organization; the paper's
	// 1U servers use 8 lanes.
	ChipsPerLane int
	Lanes        int

	// RCAsPerChip sets the die size (die = RCAs·area + overheads).
	RCAsPerChip int

	// DRAM is the per-ASIC memory subsystem (zero devices for none).
	DRAM dram.Subsystem

	// PerfPerDRAM caps each ASIC's throughput at PerfPerDRAM × devices
	// (in the RCA's PerfUnit); zero means no DRAM bandwidth bound. When
	// the cap binds, the chip is clocked down to exactly saturate DRAM,
	// scaling dynamic power with it.
	PerfPerDRAM float64

	// PerfCapPerChip caps each ASIC's throughput directly (same
	// clock-down semantics as PerfPerDRAM); zero means uncapped. The
	// CNN cloud uses this for chips whose surplus RCAs are disabled
	// because performance "is only dependent on the number of 8x8 DDN
	// systems".
	PerfCapPerChip float64

	// ExtraAreaPerChip, ExtraFixedPowerPerChip, ExtraPinsPerChip model
	// per-chip overheads that do not voltage scale (HyperTransport
	// PHYs, memory controllers beyond DRAM's, custom I/O).
	ExtraAreaPerChip       float64
	ExtraFixedPowerPerChip float64
	ExtraPinsPerChip       int

	// Network is the on/off-PCB communication plan; zero value means a
	// minimal SPI + control microcontroller + 1 GigE setup is assumed.
	Network *interconnect.Network

	// OffPCBBytesPerOp is the off-PCB bandwidth demand per unit of
	// performance (GB/s per op/s in the RCA's PerfUnit). When non-zero,
	// the evaluation sizes the off-PCB link count to the achieved
	// throughput instead of using Network.OffLinks verbatim — e.g. a
	// transcoding server must ship compressed frames in and out.
	OffPCBBytesPerOp float64

	// Fan and Layout configure the cooling system.
	Fan    thermal.Fan
	Layout thermal.Layout

	// InletTempC overrides the machine-room inlet air temperature
	// (0 selects the paper's 30 °C assumption). Cold-climate sites
	// like the paper's Iceland facility gain thermal headroom here.
	InletTempC float64

	// Stacked selects voltage stacking instead of DC/DC conversion.
	Stacked bool

	// Immersion selects two-phase immersion cooling instead of the
	// forced-air heat sink system (paper §2: machine rooms "heavily
	// customized for Bitcoin to reduce TCO, including the use of
	// immersion cooling"). Heat removal is then bounded by the boiling
	// critical heat flux on the die instead of the air chain, fans and
	// heat sinks disappear from the BOM, and a tank cost appears.
	Immersion bool

	// PSU and DCDC override the power chain (zero values use defaults).
	PSU  power.PSU
	DCDC power.DCDC
}

// Default fills in the paper's standard server components around an RCA:
// UMC 28nm, flip-chip packaging, 8 lanes, ducted cooling with the 1U
// high-static-pressure fan, 90%/90% power chain.
func Default(rca vlsi.Spec) Config {
	return Config{
		RCA:          rca,
		Process:      vlsi.UMC28nm(),
		Package:      vlsi.DefaultPackageModel(),
		Voltage:      rca.NominalVoltage,
		ChipsPerLane: 10,
		Lanes:        8,
		RCAsPerChip:  1,
		Fan:          thermal.Default1UFan(),
		Layout:       thermal.LayoutDuct,
		PSU:          power.DefaultPSU(),
		DCDC:         power.DefaultDCDC(),
	}
}

func (c Config) network() interconnect.Network {
	if c.Network != nil {
		return *c.Network
	}
	return interconnect.Network{
		OnPCB:      interconnect.SPI,
		OnPCBLinks: c.ChipsPerLane * c.Lanes,
		OffPCB:     interconnect.GigE1,
		OffLinks:   1,
		Control:    interconnect.Microcontroller,
	}
}

// Validate checks configuration sanity before evaluation. The sweep's
// hot loop validates once per column (EvaluateColumn), not once per
// configuration, so the error formatting here and in the substrate
// validators it calls is amortized off the per-point path.
//
//asic:coldpath
func (c Config) Validate() error {
	if err := c.RCA.Validate(); err != nil {
		return err
	}
	if err := c.Process.Validate(); err != nil {
		return err
	}
	if c.ChipsPerLane <= 0 || c.Lanes <= 0 || c.RCAsPerChip <= 0 {
		return fmt.Errorf("server: chips per lane, lanes and RCAs per chip must be positive")
	}
	if c.Voltage <= 0 {
		return fmt.Errorf("server: voltage must be positive")
	}
	if err := c.network().Validate(); err != nil {
		return err
	}
	return nil
}

// BOM is the itemized server bill of materials in dollars (the paper's
// Figures 13 and 16 cost breakdowns).
type BOM struct {
	Silicon   float64 // manufactured good dice
	Packages  float64 // flip-chip packages
	DCDC      float64 // converter array (or stacking balance circuitry)
	PSU       float64
	HeatSinks float64
	Fans      float64
	DRAM      float64
	PCB       float64
	Network   float64 // control processor, on/off-PCB links
	Other     float64 // chassis, connectors, assembly
}

// Total is the full server cost.
func (b BOM) Total() float64 {
	return b.Silicon + b.Packages + b.DCDC + b.PSU + b.HeatSinks +
		b.Fans + b.DRAM + b.PCB + b.Network + b.Other
}

// Evaluation is the result of the Figure 4 flow for one design point.
type Evaluation struct {
	Config Config

	DieArea     float64 // mm² per chip including controllers and extras
	Chips       int     // total chips in the server
	TotalRCAs   int
	Freq        float64 // operating clock (Hz)
	Utilization float64 // 1.0, or below when DRAM bandwidth caps perf

	Perf         float64 // server throughput in the RCA's PerfUnit
	WallPower    float64 // W from the 208 V feed
	SiliconWatts float64 // W delivered to the ASICs

	ChipHeat     float64 // W per chip dissipated on the PCB
	ThermalOK    bool
	LanePowerCap float64 // max W per lane the cooling can remove

	// GridMetalFraction is the top-metal share the on-die power grid
	// needs at this operating point (paper Figure 2's explicit Power
	// Grid); GridOK is false when even a full metal layer cannot hold
	// the droop budget and the package bump pitch must shrink.
	GridMetalFraction float64
	GridOK            bool

	Delivery power.Delivery
	Sink     thermal.HeatSink
	BOM      BOM

	DollarsPerOp float64 // $ per op/s — Pareto metric 1
	WattsPerOp   float64 // W per op/s — Pareto metric 2
}

// Cost is the server cost in dollars.
func (e Evaluation) Cost() float64 { return e.BOM.Total() }

// Errors distinguishing infeasibility classes, so the explorer can prune.
var (
	// ErrThermal flags designs whose chips exceed the cooling system's
	// capacity at the junction-temperature limit.
	ErrThermal = errors.New("server: design exceeds thermal limits")
	// ErrGeometry flags designs that do not physically fit (die too
	// large, sinks too deep, lane overstuffed).
	ErrGeometry = errors.New("server: design does not fit")
)

// DieArea returns the per-chip die area implied by the configuration:
// RCAs plus DRAM controllers, fixed-function extras and the on-PCB
// network endpoint.
func (c Config) DieArea() float64 {
	return float64(c.RCAsPerChip)*c.RCA.Area + c.DRAM.CtrlArea() +
		c.ExtraAreaPerChip + c.network().PerChipArea()
}

// ThermalPlan optimizes the cooling system for the configuration's
// geometry. The result is voltage-independent, so explorers sweeping
// voltage over a fixed geometry can compute it once and pass it to
// EvaluateWithPlan.
// Two-phase immersion cooling constants: an enhanced boiling surface
// sustains roughly 45 W/cm² of critical heat flux, the package lid
// spreads the die heat over ~1.8× the die area, and the tank, fluid and
// condenser share costs scale with the server's dissipation.
const (
	immersionFluxPerMM2  = 0.80 // W per mm² of die, via the lid
	immersionBaseCost    = 250.0
	immersionCostPerWatt = 0.08
)

// PlanInputs enumerates every Config field ThermalPlan's outcome
// depends on — the cooling plan is a pure function of these values and
// nothing else. The struct is comparable, so explorers can use it as a
// memoization key: two configurations with equal PlanInputs receive
// identical plans (or identical errors), no matter how their voltages,
// power chains or economics differ. Keep this in sync with ThermalPlan;
// a field read there but missing here silently poisons every cache
// built on top.
type PlanInputs struct {
	// DieAreaMM2 is the full per-chip die area (mm²): RCAs plus DRAM
	// controllers, fixed-function extras and the network endpoint.
	DieAreaMM2 float64
	// ChipsPerLane bounds sink depth (or board pitch under immersion).
	ChipsPerLane int
	// MaxDieAreaMM2 is the process's manufacturable die cap (mm²).
	MaxDieAreaMM2 float64
	// Immersion selects the two-phase boiling limit instead of the
	// forced-air chain.
	Immersion bool
	// Layout is the PCB arrangement (normal / staggered / duct).
	Layout thermal.Layout
	// DRAMBoardDepthM is the lane depth the DRAM rows consume (m).
	DRAMBoardDepthM float64
	// InletTempC is the machine-room inlet override (°C; 0 selects the
	// paper's 30 °C default).
	InletTempC float64
	// Fan is the fan model; its curve bounds the whole air chain.
	Fan thermal.Fan
}

// PlanInputs projects the configuration onto the fields ThermalPlan
// reads (see the PlanInputs type for the caching contract).
func (c Config) PlanInputs() PlanInputs {
	return PlanInputs{
		DieAreaMM2:      c.DieArea(),
		ChipsPerLane:    c.ChipsPerLane,
		MaxDieAreaMM2:   c.Process.MaxDieArea,
		Immersion:       c.Immersion,
		Layout:          c.Layout,
		DRAMBoardDepthM: c.DRAM.BoardDepth(),
		InletTempC:      c.InletTempC,
		Fan:             c.Fan,
	}
}

func ThermalPlan(cfg Config) (thermal.OptimizeResult, error) {
	dieArea := cfg.DieArea()
	if dieArea > cfg.Process.MaxDieArea {
		return thermal.OptimizeResult{}, fmt.Errorf("%w: die %.0f mm² exceeds %.0f mm²",
			ErrGeometry, dieArea, cfg.Process.MaxDieArea)
	}
	if cfg.Immersion {
		// Boiling at the die limits heat flux; the lane/airflow chain
		// is gone. Space still bounds the chips per lane: the bare
		// packages need ~25 mm of board each.
		const packagePitch = 0.025
		if float64(cfg.ChipsPerLane)*packagePitch > thermal.DefaultLaneLength+1e-9 {
			return thermal.OptimizeResult{}, fmt.Errorf("%w: %d immersed chips exceed the board",
				ErrGeometry, cfg.ChipsPerLane)
		}
		chipCap := immersionFluxPerMM2 * dieArea
		return thermal.OptimizeResult{
			ChipPower: chipCap,
			LanePower: chipCap * float64(cfg.ChipsPerLane),
		}, nil
	}
	opt := thermal.DefaultOptimizeOptions()
	opt.Layout = cfg.Layout
	opt.ExtraRow = cfg.DRAM.BoardDepth()
	//lint:ignore floatcmp zero is the "unset" sentinel of a user-assigned config field
	if cfg.InletTempC != 0 {
		opt.InletC = cfg.InletTempC
	}
	best, ok := thermal.OptimizeSink(cfg.Fan, cfg.ChipsPerLane, dieArea, opt)
	if !ok {
		return thermal.OptimizeResult{}, fmt.Errorf("%w: no heat sink fits %d chips of %.0f mm² in a lane",
			ErrGeometry, cfg.ChipsPerLane, dieArea)
	}
	return best, nil
}

// Evaluate runs the full Figure 4 flow.
func Evaluate(cfg Config) (Evaluation, error) {
	if err := cfg.Validate(); err != nil {
		return Evaluation{}, err
	}
	best, err := ThermalPlan(cfg)
	if err != nil {
		return Evaluation{}, err
	}
	return EvaluateWithPlan(cfg, best)
}

// EvaluateWithPlan runs the flow with a precomputed thermal plan
// (obtained from ThermalPlan for the same geometry).
func EvaluateWithPlan(cfg Config, best thermal.OptimizeResult) (Evaluation, error) {
	if err := cfg.Validate(); err != nil {
		return Evaluation{}, err
	}
	var rec Record
	var r Row
	c := newColumn(&rec, &cfg, &best)
	err := c.eval(&cfg, cfg.Voltage, &r)
	if err != nil && !errors.Is(err, ErrThermal) && !errors.Is(err, errDegenerate) {
		return Evaluation{}, err
	}
	var ev Evaluation
	Join(&ev, &rec, &r)
	if errors.Is(err, ErrThermal) {
		// The hot path returns the bare sentinel; decorate it with the
		// numbers here, where one error per call is fine.
		return ev, fmt.Errorf("%w: chip heat %.1f W exceeds %.1f W capacity",
			ErrThermal, r.ChipHeat, best.ChipPower)
	}
	return ev, err
}

// EvaluateColumn is EvaluateRows with every feasible row joined into a
// full Evaluation appended to out, for callers that want whole
// Evaluations; the thermal and eval prune counts are EvaluateRows'.
func EvaluateColumn(cfg Config, plan thermal.OptimizeResult, voltages []float64, out []Evaluation) (res []Evaluation, thermalPruned, evalPruned int) {
	var rec Record
	rows, thermalPruned, evalPruned := EvaluateRows(&rec, &cfg, &plan, voltages, nil)
	for i := range rows {
		out = append(out, Evaluation{})
		Join(&out[len(out)-1], &rec, &rows[i])
	}
	return out, thermalPruned, evalPruned
}

// errDegenerate flags design points whose Pareto metrics come out NaN
// or infinite (zero performance). A package-level sentinel so the hot
// path never constructs it.
var errDegenerate = errors.New("server: degenerate design point")

// otherCost covers chassis, cabling, connectors and final assembly.
const otherCost = 40.0

// pcbCost prices the custom printed circuit board; DRAM designs need
// more layers and better signal/power integrity (paper §9).
func pcbCost(chips int, hasDRAM bool) float64 {
	c := 55.0 + 0.9*float64(chips)
	if hasDRAM {
		c *= 1.7
	}
	return c
}
