package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestOracleRejectsAOneByteChange(t *testing.T) {
	ref := []byte(`{"request_hash":"ab12","frontier":[{"voltage_v":0.47}]}` + "\n")
	o := newOracle()
	o.set("r", ref)
	if err := o.check("r", append([]byte(nil), ref...)); err != nil {
		t.Fatalf("identical bytes rejected: %v", err)
	}
	for i := range ref {
		got := append([]byte(nil), ref...)
		got[i] ^= 1
		if o.check("r", got) == nil {
			t.Fatalf("a change of byte %d was accepted", i)
		}
	}
	if o.check("r", ref[:len(ref)-1]) == nil {
		t.Fatal("a dropped byte was accepted")
	}
	if o.check("missing", ref) == nil {
		t.Fatal("a key with no reference was accepted")
	}
}

func TestGoldenPinsEveryWorkload(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"design-xcode/answer", "xcode/result", "daemon-study/seed1"} {
		if len(g[name]) != 64 {
			t.Errorf("golden.txt has no sha256 for %s", name)
		}
	}
	if err := pin(newReport(), g, "xcode/result", []byte("not the result")); err == nil {
		t.Error("pin accepted bytes whose digest is not the golden one")
	}
	if err := pin(newReport(), g, "daemon-study/seed2", []byte("anything")); err != nil {
		t.Errorf("pin without a golden entry: %v", err)
	}
}

// TestBenchmarkJSONListsTheMetrics keeps BENCHMARK.json and the
// metrics the benchmark prints in step.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the benchmark prints %d", len(got), what, len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}
