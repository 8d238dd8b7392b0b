package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"asiccloud/internal/apps/litecoin"
	"asiccloud/internal/server"
	"asiccloud/internal/tco"
)

// sweepRows evaluates every chunk of the sweep in keep mode and returns
// every feasible row in evaluation order: geometry by geometry, each
// geometry's stacking options in order, voltages ascending.
func sweepRows(t testing.TB, sweep Sweep) []row {
	t.Helper()
	plan, err := PlanSweep(sweep, tco.Default(), 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(nil)
	ctr := newExploreCounters(nil)
	w := chunkWorker{acc: newSweepAcc(PruneSummary{}), ctr: &ctr}
	var rows []row
	for c := 0; c < plan.NumChunks(); c++ {
		chunk, err := eng.evalChunk(context.Background(), plan, c, &w, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, chunk...)
	}
	if int64(len(rows)) != w.acc.summary.Feasible {
		t.Fatalf("%d rows, %d feasible", len(rows), w.acc.summary.Feasible)
	}
	return rows
}

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
			p := &res.Points[i]
			rec, r := server.Split(&p.Evaluation)
			var ev server.Evaluation
			if server.Join(&ev, &rec, &r); ev != p.Evaluation {
				t.Fatalf("%s: point %d: Join(Split(ev)) != ev", name, i)
			}
			rw := recs.split(p)
			var back Point
			if rw.writePoint(&back); back != *p {
				t.Fatalf("%s: point %d: the merger's row does not rebuild the point", name, i)
			}
			geoms[geomOf(&p.Config)] = true
		}
		if len(recs) != len(geoms) {
			t.Errorf("%s: %d records for %d geometries", name, len(recs), len(geoms))
		}
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
func TestPhysicsInvariants(t *testing.T) {
	ltc := Sweep{Base: server.Default(litecoin.RCA())}
	for name, sweep := range map[string]Sweep{
		"stacked bitcoin": stackedBitcoinSweep(),
		"litecoin":        ltc,
		"xcode":           xcodeSweep(t),
	} {
		rows := sweepRows(t, sweep)
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
			if i == 0 || rows[i-1].rec != r.rec || rows[i-1].Stacked != r.Stacked {
				continue // first feasible voltage of its column
			}
			lo := &rows[i-1]
			steps++
			if lo.Voltage >= r.Voltage {
				t.Fatalf("%s: column not in ascending voltage order: %.2f V then %.2f V", name, lo.Voltage, r.Voltage)
			}
			cfg := &r.rec.Config
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
