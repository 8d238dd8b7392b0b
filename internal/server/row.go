package server

import (
	"fmt"
	"math"

	"asiccloud/internal/interconnect"
	"asiccloud/internal/power"
	"asiccloud/internal/thermal"
	"asiccloud/internal/vlsi"
)

// The Figure 4 flow split where a sweep splits it. Every voltage and
// stacking option of one geometry shares its configuration, die, chip
// count, heat sink and most of its bill of materials; only the
// operating point and what follows from it change along a voltage
// column. So an Evaluation is two halves:
//
//   - Record, the per-geometry half: the Config with Voltage and Stacked
//     cleared, die area, chip and RCA counts, the lane's cooling
//     capacity and the heat sink;
//   - Row, the per-voltage half: voltage, stacking, clock, utilization,
//     performance, power, chip heat, power grid, delivery chain, bill of
//     materials and the two Pareto metrics.
//
// Join and Split convert between the halves and a full Evaluation.
// A Column is one voltage column resolved once: NewColumn validates it
// and resolves the terms every voltage shares, and Column.Eval is the
// per-voltage step, from the RCA's operating point at that voltage into
// a caller-owned Row. The sweep engine walks its columns itself, with
// each grid voltage's operating point computed once per sweep;
// EvaluateWithPlan and EvaluateColumn call the same step.

// Row is the per-voltage half of an Evaluation (see Record for the
// per-geometry half). Its fields mean what the Evaluation fields of the
// same names mean; Voltage and Stacked are the two Config fields a
// voltage column varies. At 240 bytes against the Evaluation's 984, it
// is what a sweep moves per configuration.
type Row struct {
	Voltage float64
	Stacked bool

	ThermalOK bool
	GridOK    bool

	Freq              float64
	Utilization       float64
	Perf              float64
	WallPower         float64
	SiliconWatts      float64
	ChipHeat          float64
	GridMetalFraction float64

	Delivery power.Delivery
	BOM      BOM

	DollarsPerOp float64
	WattsPerOp   float64
}

// Record is the per-geometry half of an Evaluation: the fields every
// row of one geometry shares. Config has Voltage and Stacked cleared;
// each Row carries its own.
type Record struct {
	Config       Config
	DieArea      float64
	Chips        int
	TotalRCAs    int
	LanePowerCap float64
	Sink         thermal.HeatSink
}

// Join writes the Evaluation of row r of the geometry rec describes
// into *ev. It stores field by field, so an Evaluation in a large slice
// is filled in place, with no kilobyte temporary.
func Join(ev *Evaluation, rec *Record, r *Row) {
	ev.Config = rec.Config
	ev.Config.Voltage, ev.Config.Stacked = r.Voltage, r.Stacked
	ev.DieArea = rec.DieArea
	ev.Chips = rec.Chips
	ev.TotalRCAs = rec.TotalRCAs
	ev.Freq = r.Freq
	ev.Utilization = r.Utilization
	ev.Perf = r.Perf
	ev.WallPower = r.WallPower
	ev.SiliconWatts = r.SiliconWatts
	ev.ChipHeat = r.ChipHeat
	ev.ThermalOK = r.ThermalOK
	ev.LanePowerCap = rec.LanePowerCap
	ev.GridMetalFraction = r.GridMetalFraction
	ev.GridOK = r.GridOK
	ev.Delivery = r.Delivery
	ev.Sink = rec.Sink
	ev.BOM = r.BOM
	ev.DollarsPerOp = r.DollarsPerOp
	ev.WattsPerOp = r.WattsPerOp
}

// Split is Join's inverse: Join writes *ev back from the halves it
// returns.
func Split(ev *Evaluation) (Record, Row) {
	rec := Record{
		Config:       ev.Config,
		DieArea:      ev.DieArea,
		Chips:        ev.Chips,
		TotalRCAs:    ev.TotalRCAs,
		LanePowerCap: ev.LanePowerCap,
		Sink:         ev.Sink,
	}
	rec.Config.Voltage, rec.Config.Stacked = 0, false
	return rec, Row{
		Voltage:           ev.Config.Voltage,
		Stacked:           ev.Config.Stacked,
		ThermalOK:         ev.ThermalOK,
		GridOK:            ev.GridOK,
		Freq:              ev.Freq,
		Utilization:       ev.Utilization,
		Perf:              ev.Perf,
		WallPower:         ev.WallPower,
		SiliconWatts:      ev.SiliconWatts,
		ChipHeat:          ev.ChipHeat,
		GridMetalFraction: ev.GridMetalFraction,
		Delivery:          ev.Delivery,
		BOM:               ev.BOM,
		DollarsPerOp:      ev.DollarsPerOp,
		WattsPerOp:        ev.WattsPerOp,
	}
}

// Column is one geometry's voltage column resolved for evaluation: the
// network, die, power-grid, heat-sink, PCB, fan and DRAM terms of the
// flow that do not depend on the operating point. NewColumn builds it
// once per column; Eval evaluates one voltage of it. (The column's
// Config is passed to Eval beside it rather than stored in it, so that
// escape analysis keeps a caller's Config on the stack.)
type Column struct {
	net     interconnect.Network
	grid    vlsi.PowerGrid
	dieArea float64
	chips   int
	// chipCap is the cooling plan's per-chip power limit (W).
	chipCap float64
	// fixedPerChip is the per-chip power that does not voltage scale
	// (DRAM controllers, extras, the on-PCB network endpoint).
	fixedPerChip float64
	// fanPower, dramPower and offPCB are the 12 V loads (W); offPCB is
	// re-derived per voltage when off-PCB links follow throughput.
	fanPower, dramPower, offPCB float64
	extraPins                   int
	// bom holds the voltage-independent BOM lines; Eval fills in the
	// packages, the power chain and (with provisioned links) the network.
	bom BOM
	// rails is Eval's rail scratch; rails[1] is the fixed I/O rail.
	rails [3]power.Rail
	// dieAreaErr and dieCostErr are the geometry's die failures,
	// reported at the flow steps that would find them.
	dieAreaErr, dieCostErr error
}

// NewColumn validates the column of the geometry cfg describes, at
// cfg.Stacked (cfg.Voltage is ignored: each Eval supplies a voltage),
// under the precomputed thermal plan, and resolves the terms every
// voltage of it shares, filling *rec with the geometry's record. The
// configuration and the on-die power grid are validated here, once per
// column, so Eval validates nothing; an error rules out every voltage
// of the column.
func NewColumn(rec *Record, cfg *Config, plan *thermal.OptimizeResult) (Column, error) {
	if err := cfg.validateColumn(); err != nil {
		return Column{}, err
	}
	return newColumn(rec, cfg, plan)
}

// newColumn is NewColumn for a configuration already validated: it
// validates the power grid and resolves the voltage-independent terms
// of cfg's column, filling *rec. The die errors it stores are geometry
// properties that ThermalPlan rejects before any swept column starts,
// so they are built only for hand-built calls.
func newColumn(rec *Record, cfg *Config, plan *thermal.OptimizeResult) (Column, error) {
	grid := vlsi.DefaultPowerGrid()
	if err := grid.Validate(); err != nil {
		return Column{}, err
	}
	net := cfg.network()
	dieArea := cfg.DieArea()
	chips := cfg.ChipsPerLane * cfg.Lanes
	*rec = Record{
		Config:       *cfg,
		DieArea:      dieArea,
		Chips:        chips,
		TotalRCAs:    cfg.RCAsPerChip * chips,
		LanePowerCap: plan.LanePower,
		Sink:         plan.Sink,
	}
	rec.Config.Voltage, rec.Config.Stacked = 0, false

	c := Column{
		net:          net,
		grid:         grid,
		dieArea:      dieArea,
		chips:        chips,
		chipCap:      plan.ChipPower,
		fixedPerChip: cfg.DRAM.CtrlPower() + cfg.ExtraFixedPowerPerChip + net.OnPCB.Power,
		fanPower:     float64(cfg.Lanes) * cfg.Fan.Power,
		dramPower:    cfg.DRAM.Power() * float64(chips),
		offPCB:       offPCBPower(&net),
		extraPins:    cfg.DRAM.SignalPins() + cfg.ExtraPinsPerChip + net.PerChipPins(),
	}
	if dieArea > cfg.Process.MaxDieArea {
		c.dieAreaErr = fmt.Errorf("%w: die %.0f mm² exceeds %.0f mm²",
			ErrGeometry, dieArea, cfg.Process.MaxDieArea)
	}
	// Fixed per-chip loads (controllers, PHYs) run on an I/O rail; fold
	// them into the logic rail's wattage for conversion accounting at a
	// representative 1.0 V I/O voltage.
	c.rails[1] = power.Rail{Name: "io", Voltage: 1.0, Power: c.fixedPerChip * float64(chips)}
	dieCost, err := cfg.Process.DieCost(dieArea)
	if err != nil {
		c.dieCostErr = fmt.Errorf("%w: %v", ErrGeometry, err)
	}
	c.bom = BOM{
		Silicon:   dieCost * float64(chips),
		HeatSinks: plan.Sink.Cost() * float64(chips),
		Fans:      cfg.Fan.Cost * float64(cfg.Lanes),
		DRAM:      cfg.DRAM.Cost() * float64(chips),
		PCB:       pcbCost(chips, cfg.DRAM.PerASIC > 0),
		Network:   net.Cost(),
		Other:     otherCost,
	}
	if cfg.Immersion {
		c.fanPower = 0 // passive two-phase loop; condenser power is in PUE
		c.bom.HeatSinks = 0
		c.bom.Fans = 0
	}
	return c, nil
}

// offPCBPower is the network's 12 V draw: the control processor plus
// the off-PCB PHYs.
func offPCBPower(n *interconnect.Network) float64 {
	return n.Control.Power + float64(n.OffLinks)*n.OffPCB.Power
}

// Eval is the allocation-free per-voltage step of the Figure 4 flow:
// steps 2-7 for column c of cfg at operating point op, written into
// *r. op must be cfg.RCA.At(op.Voltage): step 1, the voltage scaling
// model, depends on the voltage alone, so a sweep computes it once per
// grid voltage. Errors on the paths the sweep hits per configuration
// are bare sentinels (ErrThermal, errDegenerate): callers that face
// humans wrap them with detail, and callers that prune millions of
// points match them with errors.Is and pay nothing. On ErrThermal and
// errDegenerate *r is complete; on any other error it is partial and
// must be discarded. Chip heat grows monotonically with voltage, so a
// caller walking a column in ascending voltage prunes the first
// ErrThermal's voltage and every voltage above it.
func (c *Column) Eval(cfg *Config, op *vlsi.OperatingPoint, r *Row) error {
	// 2. Die composition (resolved once per column).
	if c.dieAreaErr != nil {
		return c.dieAreaErr
	}

	// 3. Performance, with the DRAM bandwidth cap. When DRAM binds,
	// clock down to saturation: dynamic power follows utilization.
	// (Plain ifs, not a closure: this runs once per swept configuration
	// and the hot path stays free of allocation machinery.)
	chipPerf := float64(cfg.RCAsPerChip) * op.Perf
	utilization := 1.0
	if cap := cfg.PerfPerDRAM * float64(cfg.DRAM.PerASIC); cfg.DRAM.PerASIC > 0 && cap > 0 && chipPerf > cap {
		utilization *= cap / chipPerf
		chipPerf = cap
	}
	if cap := cfg.PerfCapPerChip; cap > 0 && chipPerf > cap {
		utilization *= cap / chipPerf
		chipPerf = cap
	}

	// 4. Chip power. Logic and SRAM dynamic power scale with
	// utilization; leakage and fixed overheads do not, so each rail's
	// power is railPower · ((1-leak)·util + leak).
	leakFrac := cfg.RCA.LeakageFraction
	dynScale := (1-leakFrac)*utilization + leakFrac
	logicPerChip := op.LogicPower * dynScale * float64(cfg.RCAsPerChip)
	sramPerChip := op.SRAMPower * dynScale * float64(cfg.RCAsPerChip)
	chipHeat := logicPerChip + sramPerChip + c.fixedPerChip
	chips := c.chips

	// Size the on-die power grid for this operating point.
	gridMetal, gridErr := c.grid.RequiredMetalFraction(chipHeat/c.dieArea, op.Voltage)
	gridOK := gridErr == nil
	if !gridOK {
		gridMetal = 1
	}

	// Provision off-PCB links to the achieved throughput when the
	// application declares a bandwidth demand per op.
	offPCB, netCost := c.offPCB, c.bom.Network
	if cfg.OffPCBBytesPerOp > 0 {
		demand := cfg.OffPCBBytesPerOp * chipPerf * float64(chips)
		net := c.net
		net.OffLinks = max(interconnect.RequiredOffLinks(net.OffPCB, demand), 1)
		offPCB, netCost = offPCBPower(&net), net.Cost()
	}

	// 5. Thermal feasibility against the precomputed cooling plan.
	thermalOK := chipHeat <= c.chipCap+1e-9

	// 6. Power delivery.
	twelveV := c.fanPower + c.dramPower + offPCB
	if cfg.Stacked {
		sp, err := power.PlanStack(12, op.Voltage)
		if err != nil {
			return err
		}
		railPower := (logicPerChip+sramPerChip)*float64(chips) + c.rails[1].Power
		if r.Delivery, err = power.PlanStacked(cfg.PSU, sp, railPower, chips, twelveV); err != nil {
			return err
		}
	} else {
		c.rails[0] = power.Rail{Name: "logic", Voltage: op.Voltage, Power: logicPerChip * float64(chips)}
		n := 2
		if sramPerChip > 0 {
			c.rails[2] = power.Rail{Name: "sram", Voltage: op.SRAMVoltage, Power: sramPerChip * float64(chips)}
			n = 3
		}
		var err error
		if r.Delivery, err = power.Plan(cfg.PSU, cfg.DCDC, c.rails[:n], twelveV); err != nil {
			return err
		}
	}

	// 7. Bill of materials.
	if c.dieCostErr != nil {
		return c.dieCostErr
	}
	chipAmps := (logicPerChip + sramPerChip + c.fixedPerChip) / op.Voltage
	pkgCost, err := cfg.Package.Cost(c.dieArea, chipAmps, c.extraPins)
	if err != nil {
		return err
	}
	r.BOM = c.bom
	r.BOM.Packages = pkgCost * float64(chips)
	r.BOM.DCDC = r.Delivery.DCDCCost
	r.BOM.PSU = r.Delivery.PSUCost
	r.BOM.Network = netCost
	if cfg.Immersion {
		r.BOM.Other += immersionBaseCost + immersionCostPerWatt*r.Delivery.WallPower
	}

	perf := chipPerf * float64(chips)
	r.Voltage, r.Stacked = op.Voltage, cfg.Stacked
	r.ThermalOK, r.GridOK = thermalOK, gridOK
	r.Freq = op.Freq * utilization
	r.Utilization = utilization
	r.Perf = perf
	r.WallPower = r.Delivery.WallPower
	r.SiliconWatts = r.Delivery.RailPower
	r.ChipHeat = chipHeat
	r.GridMetalFraction = gridMetal
	r.DollarsPerOp, r.WattsPerOp = 0, 0
	if perf > 0 {
		r.DollarsPerOp = r.BOM.Total() / perf
		r.WattsPerOp = r.Delivery.WallPower / perf
	}
	if !thermalOK {
		// Bare sentinel: the sweep prunes on this per infeasible
		// configuration, and error formatting here once dominated the
		// warm sweep's allocation profile. EvaluateWithPlan adds the
		// wattage detail for human-facing callers.
		return ErrThermal
	}
	if math.IsNaN(r.DollarsPerOp) || math.IsInf(r.DollarsPerOp, 0) {
		return errDegenerate
	}
	return nil
}
