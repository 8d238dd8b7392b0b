package server_test

import (
	"reflect"
	"testing"

	"asiccloud/internal/apps/bitcoin"
	"asiccloud/internal/apps/xcode"
	"asiccloud/internal/server"
)

// leaf is one exported scalar reachable from a Config: its dotted name
// and the field-index path that leads to it (pointers in between are
// followed).
type leaf struct {
	name string
	path []int
}

// configLeaves lists every exported scalar leaf reachable from v,
// descending into structs and non-nil pointers. Any other composite
// kind fails the test, so a new field of a kind the perturbation does
// not know how to change cannot slip past the key contracts unseen.
func configLeaves(t *testing.T, v reflect.Value, name string, path []int, out []leaf) []leaf {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			out = configLeaves(t, v.Field(i), name+"."+f.Name, append(path[:len(path):len(path)], i), out)
		}
	case reflect.Pointer:
		if !v.IsNil() {
			out = configLeaves(t, v.Elem(), name, path, out)
		}
	case reflect.Float32, reflect.Float64, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32,
		reflect.Int64, reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Bool, reflect.String:
		out = append(out, leaf{name: name, path: path})
	default:
		t.Fatalf("%s: no perturbation for kind %v", name, v.Kind())
	}
	return out
}

// perturb returns a copy of base with leaf l changed: floats scaled and
// shifted (so zero, the "unset" value of several fields, moves too),
// integers plus one, booleans flipped, strings extended. Pointers on
// the way are cloned, so base is never modified.
func perturb(base server.Config, l leaf) server.Config {
	cfg := base
	v := reflect.ValueOf(&cfg).Elem()
	for _, i := range l.path {
		v = v.Field(i)
		if v.Kind() == reflect.Pointer {
			clone := reflect.New(v.Type().Elem())
			clone.Elem().Set(v.Elem())
			v.Set(clone)
			v = clone.Elem()
		}
	}
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float()*1.25 + 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	}
	return cfg
}

// errText is err's message, empty for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestPlanKeyContracts checks the written contracts of both thermal
// caches against the code they describe. It perturbs every exported
// leaf of a Config, one at a time, on three bases (stacked bitcoin,
// XCode with five DRAM devices per ASIC, and an immersion-cooled
// server). Whenever the perturbed configuration keeps its PlanInputs,
// ThermalPlan must return the base's plan and error text; whenever it
// keeps its AirInputs, SinkCandidates must return the base's candidate
// set. A field either function reads but its key omits fails here
// instead of silently serving one geometry's plan to another.
func TestPlanKeyContracts(t *testing.T) {
	stacked := server.Default(bitcoin.RCA())
	stacked.Stacked = true
	stacked.RCAsPerChip = 150
	xc, err := xcode.ServerConfig(5)
	if err != nil {
		t.Fatal(err)
	}
	xc.RCAsPerChip = 20
	wet := server.Default(bitcoin.RCA())
	wet.Immersion = true
	wet.RCAsPerChip = 300
	for _, tc := range []struct {
		name string
		base server.Config
	}{{"stacked-bitcoin", stacked}, {"xcode-dram5", xc}, {"immersion", wet}} {
		t.Run(tc.name, func(t *testing.T) {
			basePlan, baseErr := server.ThermalPlan(tc.base)
			if baseErr != nil {
				t.Fatalf("base plan: %v", baseErr)
			}
			baseSinks := tc.base.SinkCandidates()
			leaves := configLeaves(t, reflect.ValueOf(tc.base), "Config", nil, nil)
			var planKept, airKept, planMoved, airMoved int
			for _, l := range leaves {
				cfg := perturb(tc.base, l)
				if reflect.DeepEqual(cfg, tc.base) {
					t.Fatalf("%s: perturbation left the config unchanged", l.name)
				}
				if cfg.PlanInputs() == tc.base.PlanInputs() {
					planKept++
					plan, err := server.ThermalPlan(cfg)
					if plan != basePlan || errText(err) != errText(baseErr) {
						t.Errorf("%s keeps PlanInputs but changes ThermalPlan: %+v, %q; base %+v, %q",
							l.name, plan, errText(err), basePlan, errText(baseErr))
					}
				} else {
					planMoved++
				}
				if cfg.AirInputs() == tc.base.AirInputs() {
					airKept++
					if sinks := cfg.SinkCandidates(); !reflect.DeepEqual(sinks, baseSinks) {
						t.Errorf("%s keeps AirInputs but changes SinkCandidates: %+v; base %+v",
							l.name, sinks, baseSinks)
					}
				} else {
					airMoved++
				}
			}
			t.Logf("%d leaves: PlanInputs kept by %d, moved by %d; AirInputs kept by %d, moved by %d",
				len(leaves), planKept, planMoved, airKept, airMoved)
			if planKept == 0 || planMoved == 0 || airKept == 0 || airMoved == 0 {
				t.Errorf("every key must be both kept and moved by some leaf: plan %d/%d, air %d/%d",
					planKept, planMoved, airKept, airMoved)
			}
		})
	}
}
