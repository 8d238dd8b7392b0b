package service

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"asiccloud/internal/carbon"
	"asiccloud/internal/dram"
	"asiccloud/internal/tco"
	"asiccloud/internal/vlsi"
)

// decode parses a JSON request body exactly as the HTTP handler does.
func decode(t testing.TB, body string) *Request {
	t.Helper()
	req, err := DecodeRequest(strings.NewReader(body))
	if err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	return req
}

// hashOf canonicalizes a JSON body and returns its request hash.
func hashOf(t *testing.T, body string) string {
	t.Helper()
	can, err := Canonicalize(decode(t, body))
	if err != nil {
		t.Fatalf("canonicalize %s: %v", body, err)
	}
	return can.Hash()
}

func TestHashIgnoresFieldOrder(t *testing.T) {
	a := hashOf(t, `{"app":"bitcoin","sweep":{"voltages_v":[0.5,0.6],"chips_per_lane":[1,2]}}`)
	b := hashOf(t, `{"sweep":{"chips_per_lane":[1,2],"voltages_v":[0.5,0.6]},"app":"bitcoin"}`)
	if a != b {
		t.Fatalf("field order changed hash: %s vs %s", a, b)
	}
}

func TestHashIgnoresFloatSpelling(t *testing.T) {
	a := hashOf(t, `{"app":"bitcoin","sweep":{"voltages_v":[0.5]}}`)
	b := hashOf(t, `{"app":"bitcoin","sweep":{"voltages_v":[0.50]}}`)
	c := hashOf(t, `{"app":"bitcoin","sweep":{"voltages_v":[5e-1]}}`)
	if a != b || a != c {
		t.Fatalf("float spelling changed hash: %s / %s / %s", a, b, c)
	}
}

func TestHashIgnoresGridOrderAndDuplicateVoltages(t *testing.T) {
	a := hashOf(t, `{"app":"bitcoin","sweep":{"voltages_v":[0.6,0.5,0.5],"silicon_per_lane_mm2":[50,30]}}`)
	b := hashOf(t, `{"app":"bitcoin","sweep":{"voltages_v":[0.5,0.6],"silicon_per_lane_mm2":[30,50]}}`)
	if a != b {
		t.Fatalf("grid order / duplicate voltage changed hash: %s vs %s", a, b)
	}
}

func TestHashKeepsDuplicateSilicon(t *testing.T) {
	// Duplicate silicon entries change the sweep's duplicate accounting,
	// which is part of the response — they must NOT collapse.
	a := hashOf(t, `{"app":"bitcoin","sweep":{"silicon_per_lane_mm2":[30,30]}}`)
	b := hashOf(t, `{"app":"bitcoin","sweep":{"silicon_per_lane_mm2":[30]}}`)
	if a == b {
		t.Fatal("duplicate silicon entries collapsed, but they change PruneSummary.Duplicates")
	}
}

func TestHashIgnoresSpelledOutDefaults(t *testing.T) {
	// Explicitly writing the default TCO model must hash like omitting it.
	a := hashOf(t, `{"app":"bitcoin"}`)
	b := hashOf(t, `{"app":"bitcoin","tco":{"pue":1.1}}`) // tco.Default().PUE
	if a != b {
		t.Fatalf("spelled-out default PUE changed hash: %s vs %s", a, b)
	}
	// The whole tco.Default() block, as API.md shows it.
	full := hashOf(t, `{"app":"bitcoin","tco":{"server_markup":1.05,"interest_rate":0.082,"lifetime_years":1.5,"dc_capex_per_watt_year":1.6027,"dc_amort_years":7.1,"electricity_per_kwh":0.06,"pue":1.1}}`)
	if a != full {
		t.Fatalf("spelled-out default TCO model changed hash: %s vs %s", a, full)
	}
	// Same for the custom RCA defaults.
	c := hashOf(t, `{"app":"custom","rca":{"area_mm2":2,"nominal_perf":100,"nominal_power_density_w_per_mm2":0.3}}`)
	d := hashOf(t, `{"app":"custom","rca":{"area_mm2":2,"nominal_perf":100,"nominal_power_density_w_per_mm2":0.3,"nominal_voltage_v":1.0,"nominal_freq_hz":800e6,"leakage_fraction":0.03,"name":"custom","perf_unit":"ops/s"}}`)
	if c != d {
		t.Fatalf("spelled-out custom RCA defaults changed hash: %s vs %s", c, d)
	}
}

func TestHashExcludesTimeout(t *testing.T) {
	a := hashOf(t, `{"app":"bitcoin"}`)
	b := hashOf(t, `{"app":"bitcoin","timeout_seconds":7}`)
	if a != b {
		t.Fatal("timeout_seconds entered the hash; it is an execution option")
	}
}

func TestHashSeparatesDifferentSweeps(t *testing.T) {
	base := hashOf(t, `{"app":"bitcoin"}`)
	for name, body := range map[string]string{
		"app":      `{"app":"litecoin"}`,
		"voltages": `{"app":"bitcoin","sweep":{"voltages_v":[0.5]}}`,
		"chips":    `{"app":"bitcoin","sweep":{"chips_per_lane":[1,2,3]}}`,
		"dram":     `{"app":"bitcoin","sweep":{"dram_per_asic":[0,2]}}`,
		"stacked":  `{"app":"bitcoin","sweep":{"stacked":true}}`,
		"tco":      `{"app":"bitcoin","tco":{"electricity_per_kwh":0.10}}`,
	} {
		if h := hashOf(t, body); h == base {
			t.Errorf("%s: hash collided with the default bitcoin sweep", name)
		}
	}
}

func TestInertDRAMKindCannotSplitHashes(t *testing.T) {
	// With no DRAM swept, dram_kind is inert and must not split hashes.
	a := hashOf(t, `{"app":"bitcoin"}`)
	b := hashOf(t, `{"app":"bitcoin","sweep":{"dram_kind":"GDDR5"}}`)
	if a != b {
		t.Fatal("inert dram_kind split the hash of two identical sweeps")
	}
	// Once DRAM is swept, the kind matters.
	c := hashOf(t, `{"app":"bitcoin","sweep":{"dram_per_asic":[2],"dram_kind":"GDDR5"}}`)
	d := hashOf(t, `{"app":"bitcoin","sweep":{"dram_per_asic":[2],"dram_kind":"DDR4"}}`)
	if c == d {
		t.Fatal("dram_kind ignored although the sweep provisions DRAM")
	}
}

func TestCanonicalizeRejects(t *testing.T) {
	for name, body := range map[string]string{
		"missing app":              `{}`,
		"unknown app":              `{"app":"quantum"}`,
		"cnn not served":           `{"app":"cnn"}`,
		"custom needs rca":         `{"app":"custom"}`,
		"negative voltage":         `{"app":"bitcoin","sweep":{"voltages_v":[-0.5]}}`,
		"zero silicon":             `{"app":"bitcoin","sweep":{"silicon_per_lane_mm2":[0]}}`,
		"zero chips":               `{"app":"bitcoin","sweep":{"chips_per_lane":[0]}}`,
		"negative dram":            `{"app":"bitcoin","sweep":{"dram_per_asic":[-1]}}`,
		"bad dram kind":            `{"app":"bitcoin","sweep":{"dram_per_asic":[1],"dram_kind":"SRAM"}}`,
		"bad tco":                  `{"app":"bitcoin","tco":{"pue":0.5}}`,
		"negative markup":          `{"app":"bitcoin","tco":{"server_markup":-1}}`,
		"negative dc amort":        `{"app":"bitcoin","tco":{"dc_amort_years":-100}}`,
		"bad rca":                  `{"app":"custom","rca":{"area_mm2":-1,"nominal_perf":1,"nominal_power_density_w_per_mm2":0.1}}`,
		"rca with a published app": `{"app":"bitcoin","rca":{"area_mm2":2,"nominal_perf":100,"nominal_power_density_w_per_mm2":0.3}}`,
	} {
		if _, err := Canonicalize(decode(t, body)); err == nil {
			t.Errorf("%s: Canonicalize accepted %s", name, body)
		}
	}
}

func TestCanonicalXcodeDefaults(t *testing.T) {
	can, err := Canonicalize(decode(t, `{"app":"xcode"}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(can.DRAMPerASIC) != 9 || can.DRAMPerASIC[0] != 1 || can.DRAMPerASIC[8] != 9 {
		t.Fatalf("xcode DRAM default = %v, want 1..9", can.DRAMPerASIC)
	}
	if got := can.RCA.PerfUnit; got != "Kfps" {
		t.Fatalf("xcode perf unit = %q", got)
	}
}

func TestPlanMatchesCanonicalGrids(t *testing.T) {
	can, err := Canonicalize(decode(t, `{"app":"bitcoin","sweep":{"voltages_v":[0.6,0.5],"chips_per_lane":[2,1]}}`))
	if err != nil {
		t.Fatal(err)
	}
	sweep, model, err := can.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Voltages) != 2 || sweep.Voltages[0] != 0.5 {
		t.Fatalf("sweep voltages = %v", sweep.Voltages)
	}
	if len(sweep.ChipsPerLane) != 2 || sweep.ChipsPerLane[0] != 1 {
		t.Fatalf("sweep chips = %v", sweep.ChipsPerLane)
	}
	if err := model.Validate(); err != nil {
		t.Fatalf("planned model invalid: %v", err)
	}
}

// schemaCanonical is the Canonical TestHashSchema perturbs. Every field
// holds a distinct non-zero literal, so a dropped, swapped or
// reformatted write changes its digest. It takes nothing from
// tco.Default(), carbon.Default() or an app's RCA: recalibrating a
// default changes values the hash already encodes, which needs no
// hashVersion bump and must not trip the pin. RCA.Curve stays nil, as
// Canonicalize leaves it.
func schemaCanonical() Canonical {
	return Canonical{
		App: "app",
		RCA: vlsi.Spec{
			Name: "rca", PerfUnit: "unit/s",
			Area: 1.5, NominalVoltage: 2.5, NominalFreq: 3.5, NominalPerf: 4.5,
			NominalPowerDensity: 5.5, LeakageFraction: 6.5,
			SRAMPowerFraction: 7.5, SRAMVmin: 8.5, VoltageScalable: true,
		},
		Voltages:       []float64{9.5, 10.5},
		SiliconPerLane: []float64{11.5, 12.5},
		ChipsPerLane:   []int{13, 14},
		DRAMPerASIC:    []int{15, 16},
		DRAMKind:       dram.GDDR5,
		Stacked:        true,
		Model: tco.Model{
			ServerMarkup: 17.5, InterestRate: 18.5, LifetimeYears: 19.5,
			DCCapexPerWattYear: 20.5, DCAmortYears: 21.5,
			ElectricityPerKWh: 22.5, PUE: 23.5,
		},
		Objective: "objective",
		Carbon: carbon.Model{
			WaferKgCO2e: 24.5, PackageKgCO2e: 25.5, HeatSinkKgCO2e: 26.5,
			BoardKgCO2e: 27.5, GridGCO2ePerKWh: 28.5, PUE: 29.5,
			LifetimeYears: 30.5, Utilization: 31.5,
		},
	}
}

// unhashed lists the Canonical leaf fields Hash leaves out on purpose,
// each with its reason.
var unhashed = map[string]string{
	"RCA.Curve": "Canonicalize leaves it nil for every app, which selects the default 28 nm curve",
}

// schemaCanonical's digest, pinned under this hashVersion.
const (
	pinnedVersion = "asiccloudd/v2"
	pinnedDigest  = "238f25a7e6bb011380246f1270eb451605fcb9af96bf58eda1c804ffdfc6849c"
)

// schemaLeaf is one leaf field of Canonical: its dotted path and its
// index path for reflect.Value.FieldByIndex.
type schemaLeaf struct {
	path  string
	index []int
}

// schemaLeaves lists the leaf fields of struct type t, recursing into
// struct-typed fields (RCA, Model, Carbon).
func schemaLeaves(t reflect.Type, prefix string, index []int) []schemaLeaf {
	var out []schemaLeaf
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		idx := append(append([]int(nil), index...), i)
		if f.Type.Kind() == reflect.Struct {
			out = append(out, schemaLeaves(f.Type, prefix+f.Name+".", idx)...)
			continue
		}
		out = append(out, schemaLeaf{prefix + f.Name, idx})
	}
	return out
}

// perturb makes the smallest change of v's kind and reports whether it
// knows one.
func perturb(v reflect.Value) bool {
	if !v.CanSet() {
		return false
	}
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Slice:
		v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
	case reflect.Pointer:
		if !v.IsNil() {
			return false
		}
		v.Set(reflect.New(v.Type().Elem()))
	default:
		return false
	}
	return true
}

// TestHashSchema is the gate on hashVersion, which must be bumped
// whenever what Hash writes changes, so that no cache entry written
// under the old encoding answers a request under the new one. Its
// digest case pins schemaCanonical's digest under the current
// hashVersion: a new, dropped, reordered or reformatted write fails
// there until hashVersion is bumped and the pin updated. Its fields
// case requires every leaf field of Canonical to reach Hash, apart
// from those unhashed lists.
func TestHashSchema(t *testing.T) {
	digest := schemaCanonical().Hash()

	t.Run("digest", func(t *testing.T) {
		switch {
		case hashVersion != pinnedVersion:
			t.Errorf("hashVersion is %q but the pin is for %q: set pinnedVersion = %q and pinnedDigest = %q "+
				"(and update the request_hash of FuzzChunkHandler's accepted seeds)",
				hashVersion, pinnedVersion, hashVersion, digest)
		case digest != pinnedDigest:
			t.Errorf("Hash writes schemaCanonical as %s, not the pinned %s, under the same hashVersion %q: "+
				"what Hash writes, or how, has changed; bump hashVersion, then update pinnedVersion and pinnedDigest",
				digest, pinnedDigest, hashVersion)
		}
	})

	t.Run("fields", func(t *testing.T) {
		found := make(map[string]bool)
		printed := make(map[string]string) // a leaf's printed value -> its path
		for _, leaf := range schemaLeaves(reflect.TypeOf(Canonical{}), "", nil) {
			found[leaf.path] = true
			c := schemaCanonical()
			v := reflect.ValueOf(&c).Elem().FieldByIndex(leaf.index)
			reason, isUnhashed := unhashed[leaf.path]
			if !isUnhashed && v.IsZero() {
				t.Errorf("schemaCanonical leaves %s zero: give it a non-zero literal distinct from every other field", leaf.path)
			}
			if s := fmt.Sprint(v.Interface()); !isUnhashed && v.Kind() != reflect.Bool {
				if other, dup := printed[s]; dup {
					t.Errorf("schemaCanonical gives %s and %s the same value %s: make them distinct", other, leaf.path, s)
				}
				printed[s] = leaf.path
			}
			if !perturb(v) {
				t.Fatalf("cannot perturb %s (kind %s): extend perturb to this kind", leaf.path, v.Kind())
			}
			switch changed := c.Hash() != digest; {
			case isUnhashed && changed:
				t.Errorf("%s reaches Hash, but unhashed lists it (%s): delete the entry, bump hashVersion and update the pin",
					leaf.path, reason)
			case !isUnhashed && !changed:
				t.Errorf("%s does not reach Hash: write it in Hash, bump hashVersion and update the pin, "+
					"or list it in unhashed with the reason it cannot change a result", leaf.path)
			}
		}
		for path := range unhashed {
			if !found[path] {
				t.Errorf("unhashed lists %s, which Canonical no longer has: delete the entry", path)
			}
		}

		// RCA.Curve may stay out of the hash only while no request can set it.
		for _, body := range []string{
			`{"app":"bitcoin"}`,
			`{"app":"litecoin"}`,
			`{"app":"xcode"}`,
			`{"app":"custom","rca":{"area_mm2":2,"nominal_perf":100,"nominal_power_density_w_per_mm2":0.3,"sram_power_fraction":0.2}}`,
		} {
			can, err := Canonicalize(decode(t, body))
			if err != nil {
				t.Fatalf("canonicalize %s: %v", body, err)
			}
			if can.RCA.Curve != nil {
				t.Errorf("Canonicalize(%s) sets RCA.Curve, which Hash leaves out: hash the curve, "+
					"delete its unhashed entry, bump hashVersion and update the pin", body)
			}
		}
	})
}
