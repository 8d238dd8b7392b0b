package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	appbitcoin "asiccloud/internal/apps/bitcoin"
	applitecoin "asiccloud/internal/apps/litecoin"
	appxcode "asiccloud/internal/apps/xcode"
	"asiccloud/internal/carbon"
	"asiccloud/internal/core"
	"asiccloud/internal/dram"
	"asiccloud/internal/server"
	"asiccloud/internal/tco"
	"asiccloud/internal/vlsi"
)

// Request is the JSON body of POST /v1/sweeps. Omitted fields take the
// documented defaults, and a request that spells out a default hashes
// identically to one that omits it (see Canonicalize).
type Request struct {
	// App selects the exploration target: "bitcoin", "litecoin",
	// "xcode", or "custom" (which requires RCA). The CNN cloud is not
	// served here: its explorer enumerates chip shapes rather than a
	// core.Sweep; use `asiccloud design -app cnn`.
	App string `json:"app"`

	// RCA describes a custom accelerator; required iff App == "custom".
	RCA *RCASpec `json:"rca,omitempty"`

	// Sweep bounds the swept design space; zero-valued fields select
	// the paper's grids.
	Sweep SweepSpec `json:"sweep,omitempty"`

	// TCO overrides individual datacenter-economics parameters; omitted
	// fields keep tco.Default().
	TCO *TCOSpec `json:"tco,omitempty"`

	// Objective names the optimization axis the caller designs for:
	// "tco" (the default) or "carbon". Every result carries all four
	// optima and both frontiers regardless; the objective is recorded
	// in the result (and in the request hash, so differently-aimed
	// requests never share a cache entry).
	Objective string `json:"objective,omitempty"`

	// Carbon overrides individual emission-model parameters; omitted
	// fields keep carbon.Default(). Like TCO it is part of the design
	// question and enters the request hash.
	Carbon *CarbonSpec `json:"carbon,omitempty"`

	// TimeoutSeconds caps this job's run time (s). Zero selects the
	// server default; values above the server maximum are clamped. The
	// timeout is an execution option, not part of the design space, so
	// it does not enter the request hash.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// DecodeRequest reads one Request from r the way both front ends take
// it, the POST /v1/sweeps body and asiccloudd's -request file: a single
// JSON value with no unknown field, so a typo cannot silently select a
// default, and nothing after it but whitespace, so a second request
// cannot ride along unread.
func DecodeRequest(r io.Reader) (*Request, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	switch _, err := dec.Token(); {
	case errors.Is(err, io.EOF):
		return &req, nil
	case err != nil:
		return nil, fmt.Errorf("after the request: %w", err)
	}
	return nil, errors.New("more JSON after the request")
}

// RCASpec mirrors the scalar fields of vlsi.Spec with JSON names that
// carry their units, plus the same defaults the CLI's `custom`
// subcommand applies.
type RCASpec struct {
	// Name labels the accelerator (default "custom").
	Name string `json:"name,omitempty"`
	// PerfUnit is the human unit for one op/s (default "ops/s").
	PerfUnit string `json:"perf_unit,omitempty"`
	// AreaMM2 is the silicon area of one RCA in mm². Required.
	AreaMM2 float64 `json:"area_mm2"`
	// NominalVoltage is the characterization voltage in V (default 1.0).
	NominalVoltage float64 `json:"nominal_voltage_v,omitempty"`
	// NominalFreqHz is the post-layout clock in Hz (default 800e6).
	NominalFreqHz float64 `json:"nominal_freq_hz,omitempty"`
	// NominalPerf is one RCA's throughput in PerfUnit at the nominal
	// point. Required.
	NominalPerf float64 `json:"nominal_perf"`
	// NominalPowerDensity is W/mm² at the nominal point. Required.
	NominalPowerDensity float64 `json:"nominal_power_density_w_per_mm2"`
	// LeakageFraction is the leakage share of nominal power,
	// dimensionless in [0,1) (default 0.03).
	LeakageFraction float64 `json:"leakage_fraction,omitempty"`
	// SRAMPowerFraction is the share of nominal power on the SRAM rail,
	// dimensionless in [0,1]; non-zero pins that rail at 0.9 V.
	SRAMPowerFraction float64 `json:"sram_power_fraction,omitempty"`
}

// SweepSpec bounds the swept design space. Empty slices select the
// paper's grids (and, for app "xcode", 1..9 DRAM devices per ASIC, as
// the CLI sweeps).
type SweepSpec struct {
	// Voltages lists operating voltages in V; the grid is sorted and
	// de-duplicated exactly as the engine normalizes it.
	Voltages []float64 `json:"voltages_v,omitempty"`
	// SiliconPerLane lists target RCA silicon per lane in mm².
	SiliconPerLane []float64 `json:"silicon_per_lane_mm2,omitempty"`
	// ChipsPerLane lists chip counts per lane.
	ChipsPerLane []int `json:"chips_per_lane,omitempty"`
	// DRAMPerASIC lists DRAM device counts per ASIC.
	DRAMPerASIC []int `json:"dram_per_asic,omitempty"`
	// DRAMKind overrides the DRAM technology ("LPDDR3", "DDR4",
	// "GDDR5", "HBM") when DRAMPerASIC sweeps non-zero counts; the
	// default is the application's own device (LPDDR3 where the app
	// defines none).
	DRAMKind string `json:"dram_kind,omitempty"`
	// Stacked additionally evaluates voltage-stacked variants.
	Stacked bool `json:"stacked,omitempty"`
}

// TCOSpec overrides tco.Model fields; pointers distinguish "omitted"
// from explicit zeros, which the model would reject anyway.
type TCOSpec struct {
	// ServerMarkup is the dimensionless integration markup on the BOM.
	ServerMarkup *float64 `json:"server_markup,omitempty"`
	// InterestRate is the annual cost of capital, dimensionless.
	InterestRate *float64 `json:"interest_rate,omitempty"`
	// LifetimeYears is the hardware amortization period in years.
	LifetimeYears *float64 `json:"lifetime_years,omitempty"`
	// DCCapexPerWattYear is facility cost in $ per wall watt per year.
	DCCapexPerWattYear *float64 `json:"dc_capex_per_watt_year,omitempty"`
	// DCAmortYears is the facility amortization period in years.
	DCAmortYears *float64 `json:"dc_amort_years,omitempty"`
	// ElectricityPerKWh is the energy price in $ per kWh.
	ElectricityPerKWh *float64 `json:"electricity_per_kwh,omitempty"`
	// PUE is the power usage effectiveness multiplier, dimensionless.
	PUE *float64 `json:"pue,omitempty"`
}

// CarbonSpec overrides carbon.Model fields; pointers distinguish
// "omitted" from explicit zeros (a zero grid intensity — a fully
// decarbonized grid — is meaningful and accepted).
type CarbonSpec struct {
	// WaferKgCO2e is the embodied emission of one processed wafer in
	// kg CO2e.
	WaferKgCO2e *float64 `json:"wafer_kg_co2e,omitempty"`
	// PackageKgCO2e is the per-chip packaging emission in kg CO2e.
	PackageKgCO2e *float64 `json:"package_kg_co2e,omitempty"`
	// HeatSinkKgCO2e is the per-chip cooling-hardware emission in
	// kg CO2e.
	HeatSinkKgCO2e *float64 `json:"heatsink_kg_co2e,omitempty"`
	// BoardKgCO2e is the per-server board/PSU/chassis emission in
	// kg CO2e.
	BoardKgCO2e *float64 `json:"board_kg_co2e,omitempty"`
	// GridGCO2ePerKWh is the grid carbon intensity in g CO2e per kWh.
	GridGCO2ePerKWh *float64 `json:"grid_g_co2e_per_kwh,omitempty"`
	// PUE is the power usage effectiveness multiplier, dimensionless.
	PUE *float64 `json:"pue,omitempty"`
	// LifetimeYears is the amortization period in years.
	LifetimeYears *float64 `json:"lifetime_years,omitempty"`
	// Utilization is the average duty factor in (0, 1], dimensionless.
	Utilization *float64 `json:"utilization,omitempty"`
}

// Canonical is a Request with every default resolved and every grid in
// the exact order the engine will sweep it. Two requests that differ
// only in JSON field order, spelled-out defaults, float formatting, or
// grid ordering canonicalize to equal values — and therefore equal
// hashes (Hash), which is what makes the result cache sound.
type Canonical struct {
	// App is the resolved application name ("custom" for RCA requests).
	App string
	// RCA is the resolved accelerator spec.
	RCA vlsi.Spec
	// Voltages is the resolved grid in V, ascending and de-duplicated
	// (core.NormalizeVoltages).
	Voltages []float64
	// SiliconPerLane is the resolved silicon series in mm², ascending.
	SiliconPerLane []float64
	// ChipsPerLane is the resolved chip-count series, ascending.
	ChipsPerLane []int
	// DRAMPerASIC is the resolved DRAM-count series, ascending.
	DRAMPerASIC []int
	// DRAMKind is the resolved device technology; meaningful only when
	// DRAMPerASIC sweeps a non-zero count (it is forced to the app's
	// own kind otherwise, so it cannot split hashes of equal sweeps).
	DRAMKind dram.Kind
	// Stacked mirrors SweepSpec.Stacked.
	Stacked bool
	// Model is the fully-resolved TCO model.
	Model tco.Model
	// Objective is the resolved optimization axis: "tco" or "carbon"
	// (an omitted objective canonicalizes to "tco", so spelling the
	// default hashes identically to omitting it).
	Objective string
	// Carbon is the fully-resolved emission model.
	Carbon carbon.Model
}

// parseDRAMKind maps the JSON technology names onto dram.Kind.
func parseDRAMKind(s string) (dram.Kind, error) {
	for _, k := range []dram.Kind{dram.LPDDR3, dram.DDR4, dram.GDDR5, dram.HBM} {
		if s == k.String() {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown dram_kind %q (want LPDDR3, DDR4, GDDR5 or HBM)", s)
}

// baseConfig returns the application's base server configuration — the
// same one the CLI sweeps, so daemon and CLI answers agree bit for bit.
func baseConfig(app string, rca vlsi.Spec) (server.Config, error) {
	switch app {
	case "bitcoin", "litecoin", "custom":
		return server.Default(rca), nil
	case "xcode":
		return appxcode.ServerConfig(1)
	default:
		return server.Config{}, fmt.Errorf("unknown app %q (want bitcoin, litecoin, xcode or custom)", app)
	}
}

// resolveRCA returns the app's published spec, or the custom spec with
// the CLI's defaults filled in.
func resolveRCA(req *Request) (vlsi.Spec, error) {
	switch req.App {
	case "bitcoin":
		return appbitcoin.RCA(), nil
	case "litecoin":
		return applitecoin.RCA(), nil
	case "xcode":
		return appxcode.RCA(), nil
	case "custom":
		if req.RCA == nil {
			return vlsi.Spec{}, fmt.Errorf(`app "custom" requires an rca object`)
		}
		r := *req.RCA
		if r.Name == "" {
			r.Name = "custom"
		}
		if r.PerfUnit == "" {
			r.PerfUnit = "ops/s"
		}
		//lint:ignore floatcmp a field omitted in JSON decodes to exactly 0; that exact zero selects the default
		if r.NominalVoltage == 0 {
			r.NominalVoltage = 1.0
		}
		//lint:ignore floatcmp a field omitted in JSON decodes to exactly 0; that exact zero selects the default
		if r.NominalFreqHz == 0 {
			r.NominalFreqHz = 800e6
		}
		//lint:ignore floatcmp a field omitted in JSON decodes to exactly 0; that exact zero selects the default
		if r.LeakageFraction == 0 {
			r.LeakageFraction = 0.03
		}
		spec := vlsi.Spec{
			Name:                r.Name,
			PerfUnit:            r.PerfUnit,
			Area:                r.AreaMM2,
			NominalVoltage:      r.NominalVoltage,
			NominalFreq:         r.NominalFreqHz,
			NominalPerf:         r.NominalPerf,
			NominalPowerDensity: r.NominalPowerDensity,
			LeakageFraction:     r.LeakageFraction,
			SRAMPowerFraction:   r.SRAMPowerFraction,
			VoltageScalable:     true,
		}
		if spec.SRAMPowerFraction > 0 {
			spec.SRAMVmin = 0.9
		}
		if err := spec.Validate(); err != nil {
			return vlsi.Spec{}, err
		}
		return spec, nil
	case "":
		return vlsi.Spec{}, fmt.Errorf("missing app (want bitcoin, litecoin, xcode or custom)")
	default:
		return vlsi.Spec{}, fmt.Errorf("unknown app %q (want bitcoin, litecoin, xcode or custom)", req.App)
	}
}

// sortedFloats validates that every entry is positive and finite, then
// returns an ascending copy. Duplicates are kept: they change the
// sweep's duplicate accounting, which is part of the response.
func sortedFloats(what string, vs []float64) ([]float64, error) {
	out := append([]float64(nil), vs...)
	for _, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return nil, fmt.Errorf("invalid %s entry %v (must be positive and finite)", what, v)
		}
	}
	sort.Float64s(out)
	return out, nil
}

// sortedInts validates entries against a floor and returns an ascending
// copy.
func sortedInts(what string, vs []int, min int) ([]int, error) {
	out := append([]int(nil), vs...)
	for _, v := range out {
		if v < min {
			return nil, fmt.Errorf("invalid %s entry %d (must be >= %d)", what, v, min)
		}
	}
	sort.Ints(out)
	return out, nil
}

// Canonicalize validates a request and resolves it to canonical form.
// Grid reordering and duplicate silicon/chip entries are preserved in
// meaning: the engine's result is independent of grid order, and its
// duplicate-geometry accounting is independent of order too, so sorting
// here cannot make two requests with different responses collide.
func Canonicalize(req *Request) (Canonical, error) {
	rca, err := resolveRCA(req)
	if err != nil {
		return Canonical{}, err
	}
	c := Canonical{App: req.App, RCA: rca, Stacked: req.Sweep.Stacked}

	if len(req.Sweep.Voltages) > 0 {
		if c.Voltages, err = core.NormalizeVoltages(req.Sweep.Voltages); err != nil {
			return Canonical{}, err
		}
	} else {
		c.Voltages = core.VoltageGrid(rca.MinVoltage(), rca.MaxVoltage())
	}
	if c.SiliconPerLane, err = sortedFloats("silicon_per_lane_mm2", req.Sweep.SiliconPerLane); err != nil {
		return Canonical{}, err
	}
	if len(c.SiliconPerLane) == 0 {
		c.SiliconPerLane = core.DefaultSiliconPerLane()
	}
	if c.ChipsPerLane, err = sortedInts("chips_per_lane", req.Sweep.ChipsPerLane, 1); err != nil {
		return Canonical{}, err
	}
	if len(c.ChipsPerLane) == 0 {
		c.ChipsPerLane = core.DefaultChipsPerLane()
	}
	if c.DRAMPerASIC, err = sortedInts("dram_per_asic", req.Sweep.DRAMPerASIC, 0); err != nil {
		return Canonical{}, err
	}
	if len(c.DRAMPerASIC) == 0 {
		if req.App == "xcode" {
			c.DRAMPerASIC = []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
		} else {
			c.DRAMPerASIC = []int{0}
		}
	}

	base, err := baseConfig(req.App, rca)
	if err != nil {
		return Canonical{}, err
	}
	c.DRAMKind = base.DRAM.Device.Kind
	sweepsDRAM := c.DRAMPerASIC[len(c.DRAMPerASIC)-1] > 0
	if req.Sweep.DRAMKind != "" {
		k, err := parseDRAMKind(req.Sweep.DRAMKind)
		if err != nil {
			return Canonical{}, err
		}
		if sweepsDRAM {
			c.DRAMKind = k
		}
		// With no DRAM in the sweep the kind is inert; keeping the
		// base's kind means it cannot split the hashes of two requests
		// whose swept spaces are identical.
	}

	c.Model = tco.Default()
	apply := func(dst *float64, src *float64) {
		if src != nil {
			*dst = *src
		}
	}
	if o := req.TCO; o != nil {
		apply(&c.Model.ServerMarkup, o.ServerMarkup)
		apply(&c.Model.InterestRate, o.InterestRate)
		apply(&c.Model.LifetimeYears, o.LifetimeYears)
		apply(&c.Model.DCCapexPerWattYear, o.DCCapexPerWattYear)
		apply(&c.Model.DCAmortYears, o.DCAmortYears)
		apply(&c.Model.ElectricityPerKWh, o.ElectricityPerKWh)
		apply(&c.Model.PUE, o.PUE)
	}
	if err := c.Model.Validate(); err != nil {
		return Canonical{}, err
	}

	switch req.Objective {
	case "", "tco":
		c.Objective = "tco"
	case "carbon":
		c.Objective = "carbon"
	default:
		return Canonical{}, fmt.Errorf("unknown objective %q (want tco or carbon)", req.Objective)
	}
	c.Carbon = carbon.Default()
	if o := req.Carbon; o != nil {
		apply(&c.Carbon.WaferKgCO2e, o.WaferKgCO2e)
		apply(&c.Carbon.PackageKgCO2e, o.PackageKgCO2e)
		apply(&c.Carbon.HeatSinkKgCO2e, o.HeatSinkKgCO2e)
		apply(&c.Carbon.BoardKgCO2e, o.BoardKgCO2e)
		apply(&c.Carbon.GridGCO2ePerKWh, o.GridGCO2ePerKWh)
		apply(&c.Carbon.PUE, o.PUE)
		apply(&c.Carbon.LifetimeYears, o.LifetimeYears)
		apply(&c.Carbon.Utilization, o.Utilization)
	}
	if err := c.Carbon.Validate(); err != nil {
		return Canonical{}, err
	}
	return c, nil
}

// Plan materializes the canonical request into the engine's inputs: the
// application's base configuration (with the resolved DRAM technology
// substituted when the sweep provisions DRAM) and the sweep grids.
func (c Canonical) Plan() (core.Sweep, tco.Model, error) {
	base, err := baseConfig(c.App, c.RCA)
	if err != nil {
		return core.Sweep{}, tco.Model{}, err
	}
	if c.DRAMKind != base.DRAM.Device.Kind {
		sub, err := dram.NewSubsystem(c.DRAMKind, base.DRAM.PerASIC)
		if err != nil {
			return core.Sweep{}, tco.Model{}, err
		}
		base.DRAM = sub
	}
	cm := c.Carbon
	return core.Sweep{
		Base:           base,
		Voltages:       c.Voltages,
		SiliconPerLane: c.SiliconPerLane,
		ChipsPerLane:   c.ChipsPerLane,
		DRAMPerASIC:    c.DRAMPerASIC,
		Stacked:        c.Stacked,
		Carbon:         &cm,
	}, c.Model, nil
}
