package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"asiccloud/internal/carbon"
	"asiccloud/internal/server"
	"asiccloud/internal/tco"
)

// unitModel prices a row at exactly $ + W per op/s, so hand-built rows
// can tie on TCO without tying on $ and W.
var unitModel = tco.Model{ServerMarkup: 1, LifetimeYears: 1, DCCapexPerWattYear: 1, PUE: 1}

// handRow is a feasible row at ($, W) per op/s and kg CO2e per op/s,
// priced by unitModel, at voltage v of its own geometry.
func handRow(dollars, watts, co2, v float64) Row {
	return Row{
		Row:    server.Row{Voltage: v, DollarsPerOp: dollars, WattsPerOp: watts},
		TCO:    unitModel.Of(dollars, watts),
		Carbon: carbon.Breakdown{EmbodiedKg: co2},
		Record: &server.Record{Config: server.Config{ChipsPerLane: 1, RCAsPerChip: 1}},
	}
}

// finishRows folds rows into a fresh accumulator in the given order and
// finishes it.
func finishRows(t *testing.T, rows []Row) Result {
	t.Helper()
	acc := newSweepAcc(PruneSummary{Generated: int64(len(rows)), Feasible: int64(len(rows))})
	for i := range rows {
		acc.add(&rows[i])
	}
	res, err := acc.finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestOptimaTieRule checks the tie rule Result documents on hand-built
// rows, each case folded in both arrival orders. Voltage tells the rows
// apart; lower voltage is earlier in lessRow order.
func TestOptimaTieRule(t *testing.T) {
	// want holds the voltage of each expected optimum.
	type want struct{ cost, energy, tco, carbon float64 }
	for _, tc := range []struct {
		name string
		rows []Row
		want want
	}{{
		// Equal ($, W): the first in lessRow order is the cost,
		// energy and TCO optimum.
		name: "equal dollars and watts",
		rows: []Row{handRow(1, 1, 2, 0.5), handRow(1, 1, 2, 0.4)},
		want: want{0.4, 0.4, 0.4, 0.4},
	}, {
		// Equal CO2e: least TCO wins, although 0.4 is first in lessRow
		// order.
		name: "equal CO2e",
		rows: []Row{handRow(1, 3, 1, 0.5), handRow(0.5, 10, 1, 0.4)},
		want: want{0.4, 0.5, 0.5, 0.5},
	}, {
		// Equal CO2e and equal TCO: the first in lessRow order.
		name: "equal CO2e and TCO",
		rows: []Row{handRow(2, 2, 1, 0.4), handRow(1, 3, 1, 0.5)},
		want: want{0.5, 0.4, 0.5, 0.5},
	}, {
		// A NaN $ with the best W and the best CO2e is never an optimum.
		name: "NaN dollars",
		rows: []Row{handRow(math.NaN(), 0.1, 0.1, 0.4), handRow(1, 1, 1, 0.5)},
		want: want{0.5, 0.5, 0.5, 0.5},
	}, {
		// A NaN W with the best $ and the best CO2e is never an optimum.
		name: "NaN watts",
		rows: []Row{handRow(0.1, math.NaN(), 0.1, 0.4), handRow(1, 1, 1, 0.5)},
		want: want{0.5, 0.5, 0.5, 0.5},
	}} {
		rev := make([]Row, 0, len(tc.rows))
		for i := len(tc.rows) - 1; i >= 0; i-- {
			rev = append(rev, tc.rows[i])
		}
		for order, rows := range map[string][]Row{"forward": tc.rows, "reverse": rev} {
			res := finishRows(t, rows)
			got := want{res.CostOptimal.Config.Voltage, res.EnergyOptimal.Config.Voltage,
				res.TCOOptimal.Config.Voltage, res.CarbonOptimal.Config.Voltage}
			if got != tc.want {
				t.Errorf("%s, %s: optima at voltages %+v, want %+v", tc.name, order, got, tc.want)
			}
		}
	}
}

// TestMergerIgnoresChunkOptima: ChunkResults whose four optimum fields
// hold arbitrary Points, here one cheaper, cooler, cleaner and less
// costly to own than any real point, finish to the Result they finish
// to with those fields nil.
func TestMergerIgnoresChunkOptima(t *testing.T) {
	sweep := smallSweep()
	chunks := evaluateAllChunks(t, sweep, DefaultChunkSize, false)
	want := mergeChunks(t, sweep, DefaultChunkSize, chunks)
	bogus := want.TCOOptimal
	bogus.DollarsPerOp, bogus.WattsPerOp = 1e-9, 1e-9
	bogus.TCO, bogus.Carbon = tco.Breakdown{}, carbon.Breakdown{}
	dirty := make([]ChunkResult, len(chunks))
	for i, cr := range chunks {
		if cr.EnergyOptimal != nil || cr.CostOptimal != nil || cr.TCOOptimal != nil || cr.CarbonOptimal != nil {
			t.Fatalf("chunk %d: EvaluateChunk set an optimum field", cr.Chunk)
		}
		cr.EnergyOptimal, cr.CostOptimal, cr.TCOOptimal, cr.CarbonOptimal = &bogus, &bogus, &bogus, &bogus
		dirty[i] = cr
	}
	requireResultsIdentical(t, want, mergeChunks(t, sweep, DefaultChunkSize, dirty))
}

// TestOptimaMatchBruteForce is the paper's claim, checked: under
// valid TCO models, each optimum read off the frontiers equals the
// brute-force argmin over every feasible row of the keep-mode stacked
// bitcoin sweep, under the tie rule Result documents. Besides the
// default and 20 random models, they include a zero electricity price,
// a zero markup (no cost weight: one end of the iso-TCO slope), and no
// electricity or facility capex (no watt weight: the other end).
func TestOptimaMatchBruteForce(t *testing.T) {
	models := []tco.Model{tco.Default()}
	for _, set := range []func(*tco.Model){
		func(m *tco.Model) { m.ElectricityPerKWh = 0 },
		func(m *tco.Model) { m.ServerMarkup = 0 },
		func(m *tco.Model) { m.ElectricityPerKWh, m.DCCapexPerWattYear = 0, 0 },
	} {
		m := tco.Default()
		set(&m)
		models = append(models, m)
	}
	rng := rand.New(rand.NewSource(23))
	for len(models) < 24 {
		models = append(models, tco.Model{
			ServerMarkup:       3 * rng.Float64(),
			InterestRate:       0.3 * rng.Float64(),
			LifetimeYears:      0.25 + 5*rng.Float64(),
			DCCapexPerWattYear: 5 * rng.Float64(),
			DCAmortYears:       15 * rng.Float64(),
			ElectricityPerKWh:  0.3 * rng.Float64(),
			PUE:                1 + rng.Float64(),
		})
	}
	eng := NewEngine(nil)
	for i, m := range models {
		if err := m.Validate(); err != nil {
			t.Fatalf("model %d: %v", i, err)
		}
		res, err := eng.Explore(stackedBitcoinSweep(), m)
		if err != nil {
			t.Fatal(err)
		}
		// Sorted by lessRow, the order the tie rule follows, a strict <
		// keeps the first of equal values.
		rows := slices.Clone(res.Points)
		sort.Slice(rows, func(i, j int) bool { return lessRow(&rows[i], &rows[j]) })
		cost, energy, tcoOpt, carbonOpt := -1, -1, -1, -1
		for j := range rows {
			r := &rows[j]
			d, w, c, g := r.DollarsPerOp, r.WattsPerOp, r.TCO.Total(), r.Carbon.Total()
			if !math.IsNaN(d) && !math.IsNaN(w) {
				if cost < 0 || d < rows[cost].DollarsPerOp {
					cost = j
				}
				if energy < 0 || w < rows[energy].WattsPerOp {
					energy = j
				}
				if !math.IsNaN(c) && (tcoOpt < 0 || c < rows[tcoOpt].TCO.Total()) {
					tcoOpt = j
				}
			}
			if !math.IsNaN(c) && !math.IsNaN(g) {
				if carbonOpt < 0 {
					carbonOpt = j
				} else if b := &rows[carbonOpt]; g < b.Carbon.Total() || (g == b.Carbon.Total() && c < b.TCO.Total()) {
					carbonOpt = j
				}
			}
		}
		for _, o := range []struct {
			name string
			got  Point
			j    int
		}{
			{"cost", res.CostOptimal, cost},
			{"energy", res.EnergyOptimal, energy},
			{"TCO", res.TCOOptimal, tcoOpt},
			{"carbon", res.CarbonOptimal, carbonOpt},
		} {
			if o.j < 0 || o.got != rows[o.j].Point() {
				t.Errorf("model %d %+v: the %s optimum is not the brute-force argmin (row %d of %d)",
					i, m, o.name, o.j, len(rows))
			}
		}
	}
}
