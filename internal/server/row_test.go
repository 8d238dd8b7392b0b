package server_test

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"asiccloud/internal/apps/bitcoin"
	"asiccloud/internal/apps/litecoin"
	"asiccloud/internal/apps/xcode"
	"asiccloud/internal/core"
	"asiccloud/internal/dram"
	"asiccloud/internal/server"
	"asiccloud/internal/thermal"
)

// geometries yields a spread of the paper's sweep geometries around
// base: a silicon-per-lane subset divided over a chip-count subset,
// for each DRAM count (none when drams is empty).
func geometries(t *testing.T, base server.Config, drams []int) []server.Config {
	t.Helper()
	var out []server.Config
	for _, sil := range []float64{30, 130, 530, 2200, 6000} {
		for _, chips := range []int{1, 2, 5, 10, 16, 20} {
			rcas := int(math.Round(sil / float64(chips) / base.RCA.Area))
			if rcas < 1 {
				continue
			}
			cfg := base
			cfg.RCAsPerChip, cfg.ChipsPerLane = rcas, chips
			if len(drams) == 0 {
				out = append(out, cfg)
				continue
			}
			for _, d := range drams {
				sub, err := dram.NewSubsystem(base.DRAM.Device.Kind, d)
				if err != nil {
					t.Fatal(err)
				}
				cfg.DRAM = sub
				out = append(out, cfg)
			}
		}
	}
	return out
}

// perVoltage is the column walk's contract spelled out one voltage at
// a time with EvaluateWithPlan: every feasible evaluation in grid
// order, the voltages at and above the first thermal failure, and the
// other failures. It keeps evaluating past the first thermal failure
// and returns, as lost, how many of those voltages evaluate feasible:
// the configurations the walk's early break would prune wrongly.
func perVoltage(cfg server.Config, voltages []float64) (want []server.Evaluation, thermalPruned, evalPruned, lost int) {
	plan, err := server.ThermalPlan(cfg)
	if err != nil {
		return nil, 0, 0, 0
	}
	for i, v := range voltages {
		cfg.Voltage = v
		ev, err := server.EvaluateWithPlan(cfg, plan)
		switch {
		case thermalPruned > 0:
			if err == nil {
				lost++
			}
		case err == nil:
			want = append(want, ev)
		case errors.Is(err, server.ErrThermal):
			thermalPruned = len(voltages) - i
		default:
			evalPruned++
		}
	}
	return want, thermalPruned, evalPruned, lost
}

// walkColumn walks cfg's column as the sweep engine does: one
// NewColumn, then Column.Eval at each voltage's operating point in
// ascending order into the next slot of rows, stopping at the first
// ErrThermal, which prunes its voltage and every higher one. A voltage
// whose operating point fails, or every voltage of a column NewColumn
// rejects, is an eval prune.
func walkColumn(rec *server.Record, cfg *server.Config, plan *thermal.OptimizeResult, voltages []float64, rows []server.Row) (
	_ []server.Row, thermalPruned, evalPruned int) {

	col, err := server.NewColumn(rec, cfg, plan)
	if err != nil {
		return rows, 0, len(voltages)
	}
	for i, v := range voltages {
		op, err := cfg.RCA.At(v)
		if err != nil {
			evalPruned++
			continue
		}
		n := len(rows)
		rows = append(rows, server.Row{})
		switch err := col.Eval(cfg, &op, &rows[n]); {
		case err == nil:
		case errors.Is(err, server.ErrThermal):
			return rows[:n], len(voltages) - i, evalPruned
		default:
			rows = rows[:n]
			evalPruned++
		}
	}
	return rows, 0, evalPruned
}

// TestEvaluateRowsMatchesPerVoltage checks the rows the sweep's
// per-voltage step (Column.Eval) evaluates against EvaluateWithPlan on
// the stacked bitcoin, litecoin and XCode (1..9 DRAMs) columns and an
// immersion-cooled bitcoin column: walking each column as the sweep
// does (walkColumn), every joined row equals the per-voltage
// evaluation, and the thermal and eval prune counts equal the
// per-voltage loop's; EvaluateColumn, the same walk joined into
// Evaluations, agrees too. No voltage above a column's first thermal
// failure may evaluate feasible: the walk stops there, assuming chip
// heat never falls as voltage rises. Each grid starts with two
// voltages below the RCA's range, so every column has eval prunes as
// well as (mostly) thermal ones.
func TestEvaluateRowsMatchesPerVoltage(t *testing.T) {
	xc, err := xcode.ServerConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	wet := server.Default(bitcoin.RCA())
	wet.Immersion = true
	for _, tc := range []struct {
		name  string
		base  server.Config
		drams []int
	}{
		{"bitcoin", server.Default(bitcoin.RCA()), nil},
		{"litecoin", server.Default(litecoin.RCA()), nil},
		{"xcode", xc, []int{1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{"bitcoin-immersion", wet, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			voltages := append([]float64{0.2, 0.3},
				core.VoltageGrid(tc.base.RCA.MinVoltage(), tc.base.RCA.MaxVoltage())...)
			var rows []server.Row
			var columns, feasible, thermalPruned, evalPruned int
			for _, cfg := range geometries(t, tc.base, tc.drams) {
				plan, err := server.ThermalPlan(cfg)
				if err != nil {
					continue
				}
				for _, stacked := range []bool{false, true} {
					cfg.Stacked = stacked
					want, wantThermal, wantEval, lost := perVoltage(cfg, voltages)
					if lost > 0 {
						t.Fatalf("%d chips × %d RCAs, %d DRAMs, stacked %v: %d feasible voltages above the first thermal failure",
							cfg.ChipsPerLane, cfg.RCAsPerChip, cfg.DRAM.PerASIC, stacked, lost)
					}
					var rec server.Record
					var gotThermal, gotEval int
					rows, gotThermal, gotEval = walkColumn(&rec, &cfg, &plan, voltages, rows[:0])
					if gotThermal != wantThermal || gotEval != wantEval {
						t.Fatalf("%d chips × %d RCAs, %d DRAMs, stacked %v: prunes (thermal %d, eval %d), per-voltage (%d, %d)",
							cfg.ChipsPerLane, cfg.RCAsPerChip, cfg.DRAM.PerASIC, stacked,
							gotThermal, gotEval, wantThermal, wantEval)
					}
					if len(rows) != len(want) {
						t.Fatalf("%d chips × %d RCAs, %d DRAMs, stacked %v: %d rows, %d feasible per-voltage evaluations",
							cfg.ChipsPerLane, cfg.RCAsPerChip, cfg.DRAM.PerASIC, stacked, len(rows), len(want))
					}
					for i := range rows {
						var got server.Evaluation
						if server.Join(&got, &rec, &rows[i]); got != want[i] {
							t.Fatalf("%d chips × %d RCAs, %d DRAMs, stacked %v, %.2f V: joined row\n%+v\nper-voltage\n%+v",
								cfg.ChipsPerLane, cfg.RCAsPerChip, cfg.DRAM.PerASIC, stacked, rows[i].Voltage, got, want[i])
						}
					}
					col, colThermal, colEval := server.EvaluateColumn(cfg, plan, voltages, nil)
					if !reflect.DeepEqual(col, want) || colThermal != wantThermal || colEval != wantEval {
						t.Fatalf("%d chips × %d RCAs, %d DRAMs, stacked %v: EvaluateColumn differs from the per-voltage loop",
							cfg.ChipsPerLane, cfg.RCAsPerChip, cfg.DRAM.PerASIC, stacked)
					}
					columns++
					feasible += len(rows)
					thermalPruned += gotThermal
					evalPruned += gotEval
				}
			}
			if columns == 0 || feasible == 0 || thermalPruned == 0 || evalPruned == 0 {
				t.Fatalf("%d columns: %d feasible rows, %d thermal and %d eval prunes; want all non-zero",
					columns, feasible, thermalPruned, evalPruned)
			}
		})
	}
}

// TestRowAndRecordPartitionEvaluation checks that Row and Record split
// Evaluation's fields between them: each Evaluation field appears in
// exactly one half (Config in Record; its Voltage and Stacked in Row),
// so a new Evaluation field cannot be dropped silently by Join or
// Split.
func TestRowAndRecordPartitionEvaluation(t *testing.T) {
	owner := make(map[string]string)
	for _, half := range []reflect.Type{reflect.TypeOf(server.Row{}), reflect.TypeOf(server.Record{})} {
		for i := 0; i < half.NumField(); i++ {
			name := half.Field(i).Name
			if prev, dup := owner[name]; dup {
				t.Errorf("field %s is in both %s and %s", name, prev, half.Name())
			}
			owner[name] = half.Name()
		}
	}
	if owner["Voltage"] != "Row" || owner["Stacked"] != "Row" {
		t.Errorf("Voltage and Stacked must be Row fields: %v", owner)
	}
	delete(owner, "Voltage")
	delete(owner, "Stacked")
	ev := reflect.TypeOf(server.Evaluation{})
	for i := 0; i < ev.NumField(); i++ {
		name := ev.Field(i).Name
		if _, ok := owner[name]; !ok {
			t.Errorf("Evaluation.%s is in neither Row nor Record", name)
		}
		delete(owner, name)
	}
	for name, half := range owner {
		t.Errorf("%s.%s is not an Evaluation field", half, name)
	}
}

// TestSplitJoinIdentity checks Join(Split(ev)) == ev on evaluations
// with every field set, stacked and not, with and without DRAM.
func TestSplitJoinIdentity(t *testing.T) {
	xc, err := xcode.ServerConfig(4)
	if err != nil {
		t.Fatal(err)
	}
	xc.ChipsPerLane, xc.RCAsPerChip, xc.Voltage = 8, 20, 0.8
	btc := server.Default(bitcoin.RCA())
	btc.ChipsPerLane, btc.RCAsPerChip, btc.Voltage, btc.Stacked = 10, 60, 0.45, true
	for _, cfg := range []server.Config{xc, btc} {
		ev, err := server.Evaluate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec, r := server.Split(&ev)
		if rec.Config.Voltage != 0 || rec.Config.Stacked {
			t.Errorf("Split left Voltage %v / Stacked %v in the record", rec.Config.Voltage, rec.Config.Stacked)
		}
		var back server.Evaluation
		if server.Join(&back, &rec, &r); back != ev {
			t.Errorf("Join(Split(ev)) != ev:\n%+v\n%+v", back, ev)
		}
	}
}
