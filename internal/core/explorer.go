package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"asiccloud/internal/carbon"
	"asiccloud/internal/obs"
	"asiccloud/internal/server"
	"asiccloud/internal/tco"
	"asiccloud/internal/units"
)

// Sweep describes the search space around a base configuration.
type Sweep struct {
	// Base provides the RCA and all fixed server components. Voltage,
	// ChipsPerLane, RCAsPerChip and DRAM.PerASIC are overwritten by the
	// sweep.
	Base server.Config

	// Voltages to evaluate; empty selects the paper's grid, "all
	// operating voltages from 0.4 up in increments of 0.01V".
	Voltages []float64

	// SiliconPerLane lists target RCA silicon per lane in mm²; empty
	// selects the paper's series (30 ... 6000 mm²).
	SiliconPerLane []float64

	// ChipsPerLane lists chip counts; empty selects 1..20.
	ChipsPerLane []int

	// DRAMPerASIC lists DRAM device counts per ASIC to sweep; empty
	// means {0} (no DRAM). Non-zero entries require Base.DRAM's Device
	// kind to be set (PerASIC is overwritten).
	DRAMPerASIC []int

	// Stacked additionally evaluates voltage-stacked variants.
	Stacked bool

	// Carbon selects the emission model behind every point's CO2e
	// metrics; nil selects carbon.Default(). Like the TCO model it is
	// part of the design question, not an execution option: two sweeps
	// with different carbon models answer different questions (and the
	// service hashes it accordingly).
	Carbon *carbon.Model

	// Progress, when non-nil, is invoked as each deduplicated geometry
	// cell is claimed for evaluation, with the count of geometries
	// claimed so far and the total in the work list. Long-running
	// callers (the asiccloudd job service, TUIs) use it to report how
	// far a sweep has advanced and to decide when to cancel. It is
	// called concurrently from the sweep's worker goroutines, so it
	// must be safe for concurrent use and cheap — an atomic store or a
	// non-blocking send; a blocking callback stalls the sweep.
	Progress func(done, total int)
}

// DefaultSiliconPerLane is the paper's silicon-per-lane series
// (Figures 9-12, 14).
func DefaultSiliconPerLane() []float64 {
	return []float64{30, 50, 80, 130, 210, 330, 530, 850, 1400, 2200, 3000, 6000}
}

// DefaultChipsPerLane is the paper's chip-count range: "start from the
// right with the maximum number of chips, 20".
func DefaultChipsPerLane() []int {
	out := make([]int, 20)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// VoltageGrid returns voltages from lo to hi inclusive in 0.01 V steps.
// Invalid ranges yield nil rather than a bogus grid: an inverted range
// (hi < lo) and negative endpoints are both rejected — operating
// voltages are physical quantities, and the paper's grid starts at
// 0.40 V. Explore reports a clear error when its voltage grid comes out
// empty, so a nil return surfaces immediately instead of silently
// shrinking the design space.
func VoltageGrid(lo, hi float64) []float64 {
	if hi < lo || lo < 0 || hi < 0 {
		return nil
	}
	var out []float64
	// Work in integer hundredths to avoid accumulation error.
	for c := int(math.Round(lo * 100)); c <= int(math.Round(hi*100)); c++ {
		out = append(out, float64(c)/100)
	}
	return out
}

// Point is one feasible design with its TCO and carbon footprint: the
// reported form of a design. At about a kilobyte it is too large to
// move per configuration, so the sweep evaluates, prices and folds
// compact Rows (a server.Row, TCO, carbon and a pointer to the
// geometry's shared server.Record), keeps Rows in Result.Points, and
// builds Points only for the frontiers it reports.
type Point struct {
	server.Evaluation
	TCO    tco.Breakdown
	Carbon carbon.Breakdown
}

// TCOPerOp is the headline metric: TCO per unit performance over the
// server lifetime.
func (p Point) TCOPerOp() float64 { return p.TCO.Total() }

// CO2PerOp is the carbon analogue: kg CO2e per unit performance over
// the amortization lifetime, embodied plus operational.
func (p Point) CO2PerOp() float64 { return p.Carbon.Total() }

// Prune reasons: why a generated candidate configuration was rejected
// before reaching the feasible set. These are the label values of the
// asiccloud_explore_pruned_total counter and the keys of
// PruneSummary.Reasons.
const (
	// PruneQuantization: the silicon-per-lane target divided across the
	// chips rounds below one RCA per chip.
	PruneQuantization = "sub_rca_quantization"
	// PruneDRAM: dram.NewSubsystem rejected the DRAM complement.
	PruneDRAM = "dram_subsystem_error"
	// PruneThermal: no heat sink cools the geometry at any voltage, or
	// the chip exceeds the cooling limit at this voltage and above.
	PruneThermal = "thermal_infeasible"
	// PruneEval: server.EvaluateWithPlan failed for a non-thermal
	// reason (power delivery, packaging, voltage floor, ...).
	PruneEval = "eval_error"
)

// PruneSummary accounts for every candidate configuration the sweep
// generated: Generated == Feasible + sum of Reasons, exactly. A
// configuration is one (geometry, stacking, voltage) triple.
type PruneSummary struct {
	// Generated counts unique candidate configurations entering the
	// evaluation pipeline (duplicate geometries are de-duplicated
	// before generation and tracked separately in Duplicates).
	Generated int64 `json:"generated"`
	// Feasible counts configurations that evaluated successfully.
	Feasible int64 `json:"feasible"`
	// Reasons breaks the pruned remainder down by cause.
	Reasons map[string]int64 `json:"reasons"`
	// Duplicates counts geometry grid cells skipped because another
	// silicon/chips cell quantized to the same (RCAs, chips, DRAM).
	Duplicates int64 `json:"duplicates"`
}

// PrunedTotal sums the per-reason counts.
func (s PruneSummary) PrunedTotal() int64 {
	var n int64
	for _, v := range s.Reasons {
		n += v
	}
	return n
}

func (s PruneSummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "generated %d, feasible %d", s.Generated, s.Feasible)
	keys := make([]string, 0, len(s.Reasons))
	for k := range s.Reasons {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, ", %s=%d", k, s.Reasons[k])
	}
	return b.String()
}

// add accumulates n prunes under reason. Bookkeeping off the per-
// configuration path: the sweep calls it at most once per pruned
// column or geometry, and the lazy map init runs once per summary.
//
//asic:coldpath
func (s *PruneSummary) add(reason string, n int64) {
	if n <= 0 {
		return
	}
	if s.Reasons == nil {
		s.Reasons = make(map[string]int64)
	}
	s.Reasons[reason] += n
}

// merge folds a worker-local summary into s.
func (s *PruneSummary) merge(o PruneSummary) {
	s.Generated += o.Generated
	s.Feasible += o.Feasible
	s.Duplicates += o.Duplicates
	for k, v := range o.Reasons {
		s.add(k, v)
	}
}

// Result of a design-space exploration.
type Result struct {
	// Points holds every feasible evaluated design as its Row, in the
	// deterministic result order (ascending $ per op/s, then W per
	// op/s, then the configuration), unless Engine.DiscardPoints is
	// set; Points[i].Point() builds the full Point. Rows of one
	// geometry share one read-only server.Record.
	Points []Row
	// Frontier is the Pareto-optimal subset under ($ per op/s, W per
	// op/s) minimization, ordered by ascending $ per op/s.
	Frontier []Point
	// EnergyOptimal, CostOptimal and TCOOptimal are the three columns
	// of the paper's per-application tables, and CarbonOptimal, which
	// minimizes CO2e per op/s, is the sustainability objective's answer
	// to TCOOptimal. Each is a frontier point:
	//
	//   - CostOptimal is Frontier[0] and EnergyOptimal the last Frontier
	//     point.
	//   - TCOOptimal is the first Frontier point of least TCO per op/s.
	//     TCO never falls as $ or W per op/s rises (tco.Model.Validate
	//     keeps its weights non-negative), so the least-TCO design is
	//     where an iso-TCO line touches the frontier, as in the paper's
	//     Figures 12, 14, 15 and 17.
	//   - CarbonOptimal is the last CarbonFrontier point.
	//
	// Ties: of rows with equal $ and W per op/s, the first in the result
	// order wins (the order of Points: ascending voltage, then unstacked
	// before stacked, then chips per lane, RCAs per chip and DRAM per
	// ASIC). Of rows with equal CO2e per op/s, the one with least TCO
	// per op/s wins, then the first in the result order. A row with a
	// NaN $ or W per op/s is never the cost, energy or TCO optimum, and
	// one with a NaN TCO or CO2e per op/s never the carbon optimum; an
	// optimum whose frontier is empty is the zero Point.
	EnergyOptimal Point
	CostOptimal   Point
	TCOOptimal    Point
	CarbonOptimal Point
	// CarbonFrontier is the Pareto-optimal subset under (TCO per op/s,
	// kg CO2e per op/s) minimization, ordered by ascending TCO per
	// op/s: the designs for which spending less money costs more
	// carbon and vice versa.
	CarbonFrontier []Point
	// Pruned accounts for the whole generated space: why each
	// infeasible candidate was rejected. It is populated even when
	// Explore returns an error, so "empty design space" failures report
	// counts per reason instead of a bare message.
	Pruned PruneSummary
}

// exploreCounters caches the recorder's counter handles so the sweep's
// hot loop never takes the registry lock. All fields are nil (no-op)
// when no recorder is attached.
type exploreCounters struct {
	configs    *obs.Counter
	feasible   *obs.Counter
	thermal    *obs.Counter
	dramErr    *obs.Counter
	evalErr    *obs.Counter
	quantized  *obs.Counter
	duplicates *obs.Counter
}

func newExploreCounters(rec *obs.Recorder) exploreCounters {
	reg := rec.Registry()
	reg.SetHelp("asiccloud_explore_configs_total",
		"candidate (geometry, stacking, voltage) configurations generated by the sweep")
	reg.SetHelp("asiccloud_explore_pruned_total",
		"configurations rejected before the feasible set, by reason")
	return exploreCounters{
		configs:    rec.Counter("asiccloud_explore_configs_total"),
		feasible:   rec.Counter("asiccloud_explore_feasible_total"),
		thermal:    rec.Counter("asiccloud_explore_pruned_total", "reason", PruneThermal),
		dramErr:    rec.Counter("asiccloud_explore_pruned_total", "reason", PruneDRAM),
		evalErr:    rec.Counter("asiccloud_explore_pruned_total", "reason", PruneEval),
		quantized:  rec.Counter("asiccloud_explore_pruned_total", "reason", PruneQuantization),
		duplicates: rec.Counter("asiccloud_explore_duplicate_geometries_total"),
	}
}

// Explore runs the brute-force search in parallel and summarizes it.
// It is a compatibility wrapper over a fresh Engine, so no thermal-plan
// cache survives between calls; long-lived callers that sweep
// repeatedly (studies, figures, servers) should hold one Engine and use
// its Explore/ExploreContext instead. An optional obs.Recorder (at most
// one; nil-safe no-op by default) receives per-phase spans (grid build,
// sweep, Pareto extraction), prune-reason counters, per-worker
// utilization gauges and the engine's plan-cache counters, so existing
// callers are untouched while instrumented ones see the whole search.
func Explore(sweep Sweep, model tco.Model, recorder ...*obs.Recorder) (Result, error) {
	return ExploreContext(context.Background(), sweep, model, recorder...)
}

// ExploreContext is Explore with cancellation and deadline support: see
// Engine.ExploreContext for the contract on aborts and accounting.
func ExploreContext(ctx context.Context, sweep Sweep, model tco.Model, recorder ...*obs.Recorder) (Result, error) {
	var rec *obs.Recorder
	if len(recorder) > 0 {
		rec = recorder[0]
	}
	return NewEngine(rec).ExploreContext(ctx, sweep, model)
}

// Describe renders a point like the paper's per-application tables.
func (p Point) Describe() string {
	cfg := p.Config
	return fmt.Sprintf(
		"%d chips/lane × %d lanes, %.0f mm² dies (%d RCAs), %.2f V, %.0f MHz: "+
			"%.1f %s/server, %.0f W, $%.0f → %.4g $/%s, %.4g W/%s, TCO %.4g",
		cfg.ChipsPerLane, cfg.Lanes, p.DieArea, cfg.RCAsPerChip,
		cfg.Voltage, units.HzToMHz(p.Freq),
		p.Perf, cfg.RCA.PerfUnit, p.WallPower, p.Cost(),
		p.DollarsPerOp, cfg.RCA.PerfUnit, p.WattsPerOp, cfg.RCA.PerfUnit,
		p.TCOPerOp(),
	)
}
