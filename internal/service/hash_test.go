package service

import (
	"strings"
	"testing"
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
		"missing app":      `{}`,
		"unknown app":      `{"app":"quantum"}`,
		"cnn not served":   `{"app":"cnn"}`,
		"custom needs rca": `{"app":"custom"}`,
		"negative voltage": `{"app":"bitcoin","sweep":{"voltages_v":[-0.5]}}`,
		"zero silicon":     `{"app":"bitcoin","sweep":{"silicon_per_lane_mm2":[0]}}`,
		"zero chips":       `{"app":"bitcoin","sweep":{"chips_per_lane":[0]}}`,
		"negative dram":    `{"app":"bitcoin","sweep":{"dram_per_asic":[-1]}}`,
		"bad dram kind":    `{"app":"bitcoin","sweep":{"dram_per_asic":[1],"dram_kind":"SRAM"}}`,
		"bad tco":          `{"app":"bitcoin","tco":{"pue":0.5}}`,
		"bad rca":          `{"app":"custom","rca":{"area_mm2":-1,"nominal_perf":1,"nominal_power_density_w_per_mm2":0.1}}`,
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
