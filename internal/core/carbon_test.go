package core

import (
	"math"
	"testing"

	"asiccloud/internal/carbon"
	"asiccloud/internal/tco"
)

// TestFindCarbonOptimalMatchesBruteForce checks the fast path, a
// streaming (DiscardPoints) sweep, against Explore's CarbonOptimal
// under the default carbon model. Both paths
// build identical Points, so the winner must match exactly, not just
// within tolerance.
func TestFindCarbonOptimalMatchesBruteForce(t *testing.T) {
	sweep := smallSweep()
	full, err := Explore(sweep, tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	fast := exploreDiscard(t, sweep).CarbonOptimal
	if fast.CO2PerOp() > full.CarbonOptimal.CO2PerOp()*1.005 {
		t.Errorf("fast CO2e %v vs brute force %v", fast.CO2PerOp(), full.CarbonOptimal.CO2PerOp())
	}
	if math.Abs(fast.Config.Voltage-full.CarbonOptimal.Config.Voltage) > 1e-12 {
		t.Errorf("fast voltage %.3f != brute-force voltage %.3f",
			fast.Config.Voltage, full.CarbonOptimal.Config.Voltage)
	}
}

// TestFindCarbonOptimalCustomModel exercises a non-default carbon model
// threaded through Sweep.Carbon: a near-zero grid makes embodied carbon
// dominate, which pushes the optimum toward higher voltage (sweat the
// silicon) relative to the dirty-grid optimum — the carbon analogue of
// the cheap-electricity TCO shift.
func TestFindCarbonOptimalCustomModel(t *testing.T) {
	dirty := smallSweep()
	cm := carbon.Default()
	cm.GridGCO2ePerKWh = 800
	dirty.Carbon = &cm

	clean := smallSweep()
	zm := carbon.Default()
	zm.GridGCO2ePerKWh = 0
	clean.Carbon = &zm

	dirtyOpt := exploreDiscard(t, dirty).CarbonOptimal
	cleanOpt := exploreDiscard(t, clean).CarbonOptimal
	if cleanOpt.Carbon.OperationalKg != 0 {
		t.Errorf("zero-intensity grid should have zero operational carbon, got %v",
			cleanOpt.Carbon.OperationalKg)
	}
	if cleanOpt.Config.Voltage < dirtyOpt.Config.Voltage {
		t.Errorf("zero-carbon grid optimum %.2f V below dirty-grid optimum %.2f V; embodied pressure should raise it",
			cleanOpt.Config.Voltage, dirtyOpt.Config.Voltage)
	}
	// Each agrees with its own brute force.
	for _, tc := range []struct {
		name  string
		sweep Sweep
		fast  Point
	}{{"dirty", dirty, dirtyOpt}, {"clean", clean, cleanOpt}} {
		full, err := Explore(tc.sweep, tco.Default())
		if err != nil {
			t.Fatal(err)
		}
		if tc.fast.CO2PerOp() > full.CarbonOptimal.CO2PerOp()*1.005 {
			t.Errorf("%s: fast CO2e %v vs brute force %v",
				tc.name, tc.fast.CO2PerOp(), full.CarbonOptimal.CO2PerOp())
		}
	}
}

// TestFindCarbonOptimalSparseVoltages mirrors the TCO fast path's
// sparse-set contract for the carbon objective.
func TestFindCarbonOptimalSparseVoltages(t *testing.T) {
	sweep := smallSweep()
	sweep.Voltages = []float64{0.62, 0.40, 0.42, 0.44, 0.46, 0.48, 0.60, 0.64, 0.44}
	fast := exploreDiscard(t, sweep).CarbonOptimal
	inSet := false
	for _, v := range sweep.Voltages {
		if math.Abs(fast.Config.Voltage-v) < 1e-12 {
			inSet = true
		}
	}
	if !inSet {
		t.Fatalf("fast path chose %.3f V, not in the supplied set %v",
			fast.Config.Voltage, sweep.Voltages)
	}
	brute, err := Explore(sweep, tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	if fast.CO2PerOp() > brute.CarbonOptimal.CO2PerOp()*1.005 {
		t.Fatalf("fast CO2e %.4f vs brute %.4f: disagreement beyond tolerance",
			fast.CO2PerOp(), brute.CarbonOptimal.CO2PerOp())
	}
}

// TestFindCarbonOptimalRejectsInvalidModel: a sweep carrying an invalid
// carbon model must fail loudly on both paths, not sweep with garbage.
func TestFindCarbonOptimalRejectsInvalidModel(t *testing.T) {
	sweep := smallSweep()
	bad := carbon.Default()
	bad.GridGCO2ePerKWh = math.NaN()
	sweep.Carbon = &bad
	if _, err := FindTCOOptimal(sweep, tco.Default()); err == nil {
		t.Error("NaN grid intensity should fail the fast path")
	}
	if _, err := Explore(sweep, tco.Default()); err == nil {
		t.Error("NaN grid intensity should fail Explore")
	}
}

// TestCarbonFrontierShape checks the carbon frontier's Pareto contract:
// ascending TCO per op, strictly descending CO2e per op, containing
// both single-axis optima at its ends.
func TestCarbonFrontierShape(t *testing.T) {
	res, err := Explore(smallSweep(), tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	cf := res.CarbonFrontier
	if len(cf) == 0 {
		t.Fatal("empty carbon frontier")
	}
	for i := 1; i < len(cf); i++ {
		if cf[i].TCOPerOp() < cf[i-1].TCOPerOp() {
			t.Errorf("frontier not ascending in TCO at %d", i)
		}
		if cf[i].CO2PerOp() >= cf[i-1].CO2PerOp() {
			t.Errorf("frontier not descending in CO2e at %d", i)
		}
	}
	if got := cf[0].TCOPerOp(); got != res.TCOOptimal.TCOPerOp() {
		t.Errorf("frontier head TCO %v != TCO-optimal %v", got, res.TCOOptimal.TCOPerOp())
	}
	if got := cf[len(cf)-1].CO2PerOp(); got != res.CarbonOptimal.CO2PerOp() {
		t.Errorf("frontier tail CO2e %v != carbon-optimal %v", got, res.CarbonOptimal.CO2PerOp())
	}
	// Every frontier point carries a positive embodied share: silicon is
	// never free.
	for _, p := range cf {
		if !(p.Carbon.EmbodiedKg > 0) {
			t.Errorf("non-positive embodied carbon %v at %.2f V", p.Carbon.EmbodiedKg, p.Config.Voltage)
		}
	}
}

// TestChunkedMergeCarbonModel reruns the distribution identity proof
// with a non-default carbon model riding in the sweep and the chunk
// results bounced through JSON: the merged carbon frontier and optimum
// must be byte-identical to the single-process sweep's.
func TestChunkedMergeCarbonModel(t *testing.T) {
	sweep := smallSweep()
	cm := carbon.Default()
	cm.GridGCO2ePerKWh = 20
	cm.LifetimeYears = 3
	sweep.Carbon = &cm
	want := exploreDiscard(t, sweep)
	chunks := evaluateAllChunks(t, sweep, 3, true)
	got := mergeChunks(t, sweep, 3, chunks)
	requireResultsIdentical(t, want, got)
}
