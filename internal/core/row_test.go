package core

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"asiccloud/internal/apps/litecoin"
	"asiccloud/internal/apps/xcode"
	"asiccloud/internal/carbon"
	"asiccloud/internal/server"
	"asiccloud/internal/tco"
	"asiccloud/internal/thermal"
)

// TestSplitJoinIdentityOnSweep checks that splitting every Point of a
// keep-mode sweep into a row and joining it back is the identity, both
// through server.Split/Join and through the rows ResultMerger builds,
// and that a chunk's rows share one record per geometry.
func TestSplitJoinIdentityOnSweep(t *testing.T) {
	for name, sweep := range map[string]Sweep{
		"stacked bitcoin": stackedBitcoinSweep(),
		"xcode dram":      dramSweep(t),
	} {
		res, err := NewEngine(nil).Explore(sweep, tco.Default())
		if err != nil {
			t.Fatal(err)
		}
		var recs chunkRecords
		geoms := make(map[geom]bool)
		for i := range res.Points {
			pt := res.Points[i].Point()
			p := &pt
			rec, r := server.Split(&p.Evaluation)
			var ev server.Evaluation
			if server.Join(&ev, &rec, &r); ev != p.Evaluation {
				t.Fatalf("%s: point %d: Join(Split(ev)) != ev", name, i)
			}
			rw := recs.split(p)
			if back := rw.Point(); back != *p {
				t.Fatalf("%s: point %d: the merger's row does not rebuild the point", name, i)
			}
			geoms[geomOf(&p.Config)] = true
		}
		if len(recs) != len(geoms) {
			t.Errorf("%s: %d records for %d geometries", name, len(recs), len(geoms))
		}
	}
}

// TestKeptRowsMatchEvaluation pins what keep mode retains. Every row of
// the stacked bitcoin and XCode DRAM 1..3 sweeps must build exactly the
// Point an independent evaluation of its configuration gives: the
// geometry's server.ThermalPlan, server.EvaluateWithPlan at the row's
// voltage and stacking, priced by the default TCO and carbon models.
// The rows must come in evaluation order: the geometry's index in the
// sweep's work list never falls from one row to the next, a geometry's
// unstacked rows come before its stacked ones, and voltages strictly
// ascend within a column. The rows of one geometry must share one
// record.
func TestKeptRowsMatchEvaluation(t *testing.T) {
	xc, err := xcode.ServerConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	model, cm := tco.Default(), carbon.Default()
	for name, sweep := range map[string]Sweep{
		"stacked bitcoin": stackedBitcoinSweep(),
		"xcode dram 1..3": {Base: xc, DRAMPerASIC: []int{1, 2, 3}},
	} {
		res, err := NewEngine(nil).Explore(sweep, model)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(res.Points)) != res.Pruned.Feasible {
			t.Fatalf("%s: %d rows kept, %d feasible", name, len(res.Points), res.Pruned.Feasible)
		}
		grid, err := buildGrid(sweep, model)
		if err != nil {
			t.Fatal(err)
		}
		index := make(map[geom]int, len(grid.work))
		for i, g := range grid.work {
			index[g] = i
		}
		plans := make(map[geom]thermal.OptimizeResult)
		records := make(map[geom]*server.Record)
		for i := range res.Points {
			r := &res.Points[i]
			got := r.Point()
			cfg := got.Config
			g := geomOf(&cfg)
			plan, ok := plans[g]
			if !ok {
				if plan, err = server.ThermalPlan(cfg); err != nil {
					t.Fatalf("%s: row %d: %v", name, i, err)
				}
				plans[g] = plan
			}
			ev, err := server.EvaluateWithPlan(cfg, plan)
			if err != nil {
				t.Fatalf("%s: row %d (%.2f V, stacked %v): %v", name, i, cfg.Voltage, cfg.Stacked, err)
			}
			embodied := cm.EmbodiedServerKg(cfg.Process, cfg.DieArea(), cfg.ChipsPerLane*cfg.Lanes)
			want := Point{
				Evaluation: ev,
				TCO:        model.Of(ev.DollarsPerOp, ev.WattsPerOp),
				Carbon:     cm.Of(embodied, ev.Perf, ev.WallPower),
			}
			if got != want {
				t.Fatalf("%s: row %d does not build its evaluated point:\n got %+v\nwant %+v", name, i, got, want)
			}
			if _, ok := index[g]; !ok {
				t.Fatalf("%s: row %d: geometry %+v is not in the work list", name, i, g)
			}
			if i > 0 {
				prev := &res.Points[i-1]
				pg := geomOf(&prev.Record.Config)
				switch {
				case index[pg] > index[g]:
					t.Fatalf("%s: row %d: work-list index falls from %d to %d", name, i, index[pg], index[g])
				case pg != g: // the next geometry's first column starts
				case prev.Stacked && !r.Stacked:
					t.Fatalf("%s: row %d: an unstacked row follows a stacked row of its geometry", name, i)
				case prev.Stacked == r.Stacked && prev.Voltage >= r.Voltage:
					t.Fatalf("%s: row %d: voltage %.2f V follows %.2f V in its column", name, i, r.Voltage, prev.Voltage)
				}
			}
			if rec, ok := records[g]; !ok {
				records[g] = r.Record
			} else if rec != r.Record {
				t.Fatalf("%s: row %d: its geometry's rows hold two records", name, i)
			}
		}
		t.Logf("%s: %d rows over %d geometries", name, len(res.Points), len(records))
	}
}

// TestKeepModeBytesPerRow bounds what a keep-mode sweep allocates per
// feasible row: the chunk copy and the result row, about 610 bytes,
// plus the sweep's own share spread over its rows; stacked bitcoin
// reads about 714 in all (738 when the finish also sorted a key per
// row). Building a kilobyte Point per row would cost over 1,300.
func TestKeepModeBytesPerRow(t *testing.T) {
	eng := NewEngine(nil)
	eng.Workers = 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := eng.Explore(stackedBitcoinSweep(), tco.Default())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Pruned.Feasible)
	t.Logf("%d feasible rows, %.0f bytes allocated per row", res.Pruned.Feasible, perRow)
	if perRow >= 900 {
		t.Errorf("keep mode allocates %.0f bytes per feasible row, want under 900", perRow)
	}
}

// TestPhysicsInvariants checks model invariants over every feasible
// configuration of the stacked bitcoin, litecoin and XCode (1..9 DRAMs)
// sweeps:
//
//   - every TCO and carbon component is finite and non-negative;
//   - at fixed geometry and stacking, performance never falls as the
//     voltage rises;
//   - chip heat never falls as the voltage rises while the higher
//     voltage runs at full utilization. A DRAM cap (XCode) clocks the
//     chip down to a fixed throughput, and then energy per op, which
//     voltage can lower, sets the heat.
//
// It walks keep mode's rows, whose evaluation order holds each voltage
// column together in ascending voltage, so a column starts wherever the
// record or the stacking changes from the row before.
func TestPhysicsInvariants(t *testing.T) {
	ltc := Sweep{Base: server.Default(litecoin.RCA())}
	for name, sweep := range map[string]Sweep{
		"stacked bitcoin": stackedBitcoinSweep(),
		"litecoin":        ltc,
		"xcode":           xcodeSweep(t),
	} {
		res, err := NewEngine(nil).Explore(sweep, tco.Default())
		if err != nil {
			t.Fatal(err)
		}
		rows := res.Points
		var steps, cappedFalls int
		for i := range rows {
			r := &rows[i]
			for _, c := range []struct {
				what string
				v    reflect.Value
			}{{"TCO", reflect.ValueOf(r.TCO)}, {"carbon", reflect.ValueOf(r.Carbon)}} {
				for f := 0; f < c.v.NumField(); f++ {
					if x := c.v.Field(f).Float(); math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
						t.Fatalf("%s: %s component %s = %v at %.2f V", name, c.what, c.v.Type().Field(f).Name, x, r.Voltage)
					}
				}
			}
			if i == 0 || rows[i-1].Record != r.Record || rows[i-1].Stacked != r.Stacked {
				continue // first feasible voltage of its column
			}
			lo := &rows[i-1]
			steps++
			if lo.Voltage >= r.Voltage {
				t.Fatalf("%s: column not in ascending voltage order: %.2f V then %.2f V", name, lo.Voltage, r.Voltage)
			}
			cfg := &r.Record.Config
			if r.Perf < lo.Perf {
				t.Errorf("%s: %d chips × %d RCAs, %d DRAMs, stacked %v: perf falls from %v at %.2f V to %v at %.2f V",
					name, cfg.ChipsPerLane, cfg.RCAsPerChip, cfg.DRAM.PerASIC, r.Stacked, lo.Perf, lo.Voltage, r.Perf, r.Voltage)
			}
			if r.ChipHeat < lo.ChipHeat {
				//lint:ignore floatcmp utilization is exactly 1 unless a cap clocks the chip down
				if r.Utilization == 1 {
					t.Errorf("%s: %d chips × %d RCAs, %d DRAMs, stacked %v: uncapped chip heat falls from %v W at %.2f V to %v W at %.2f V",
						name, cfg.ChipsPerLane, cfg.RCAsPerChip, cfg.DRAM.PerASIC, r.Stacked, lo.ChipHeat, lo.Voltage, r.ChipHeat, r.Voltage)
				}
				cappedFalls++
			}
		}
		if steps == 0 {
			t.Fatalf("%s: no voltage steps checked", name)
		}
		t.Logf("%s: %d rows, %d voltage steps, %d capped steps where chip heat falls", name, len(rows), steps, cappedFalls)
	}
}
