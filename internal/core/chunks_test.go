package core

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"asiccloud/internal/apps/bitcoin"
	"asiccloud/internal/apps/cnn"
	"asiccloud/internal/apps/litecoin"
	"asiccloud/internal/apps/xcode"
	"asiccloud/internal/server"
	"asiccloud/internal/tco"
	"asiccloud/internal/vlsi"
)

// exploreDiscard runs the single-process streaming sweep that the
// distributed path must reproduce byte for byte.
func exploreDiscard(t *testing.T, sweep Sweep) Result {
	t.Helper()
	eng := NewEngine(nil)
	eng.DiscardPoints = true
	res, err := eng.Explore(sweep, tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// evaluateAllChunks runs every chunk of the plan, each on its own
// engine (as distributed workers would: separate processes, separate
// thermal-plan caches), optionally bouncing each ChunkResult through
// its JSON wire form.
func evaluateAllChunks(t *testing.T, sweep Sweep, chunkSize int, viaJSON bool) []ChunkResult {
	t.Helper()
	plan, err := PlanSweep(sweep, tco.Default(), chunkSize)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]ChunkResult, 0, plan.NumChunks())
	for c := 0; c < plan.NumChunks(); c++ {
		eng := NewEngine(nil)
		cr, err := eng.EvaluateChunk(context.Background(), plan, c)
		if err != nil {
			t.Fatalf("chunk %d: %v", c, err)
		}
		if viaJSON {
			b, err := json.Marshal(cr)
			if err != nil {
				t.Fatalf("chunk %d marshal: %v", c, err)
			}
			cr = ChunkResult{}
			if err := json.Unmarshal(b, &cr); err != nil {
				t.Fatalf("chunk %d unmarshal: %v", c, err)
			}
		}
		out = append(out, cr)
	}
	return out
}

func mergeChunks(t *testing.T, sweep Sweep, chunkSize int, chunks []ChunkResult) Result {
	t.Helper()
	plan, err := PlanSweep(sweep, tco.Default(), chunkSize)
	if err != nil {
		t.Fatal(err)
	}
	m := NewResultMerger(plan)
	for _, cr := range chunks {
		m.Add(cr)
	}
	if m.Merged() != plan.NumChunks() {
		t.Fatalf("merged %d chunks, want %d", m.Merged(), plan.NumChunks())
	}
	res, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func requireResultsIdentical(t *testing.T, want, got Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Frontier, got.Frontier) {
		t.Errorf("frontier differs: %d vs %d points", len(want.Frontier), len(got.Frontier))
	}
	if !reflect.DeepEqual(want.EnergyOptimal, got.EnergyOptimal) {
		t.Error("energy optimal differs")
	}
	if !reflect.DeepEqual(want.CostOptimal, got.CostOptimal) {
		t.Error("cost optimal differs")
	}
	if !reflect.DeepEqual(want.TCOOptimal, got.TCOOptimal) {
		t.Error("TCO optimal differs")
	}
	if !reflect.DeepEqual(want.CarbonFrontier, got.CarbonFrontier) {
		t.Errorf("carbon frontier differs: %d vs %d points", len(want.CarbonFrontier), len(got.CarbonFrontier))
	}
	if !reflect.DeepEqual(want.CarbonOptimal, got.CarbonOptimal) {
		t.Error("carbon optimal differs")
	}
	if !reflect.DeepEqual(want.Pruned, got.Pruned) {
		t.Errorf("prune accounting differs:\nwant %s\ngot  %s", want.Pruned, got.Pruned)
	}
	// Byte-level check on the full wire-relevant content.
	wb, err := json.Marshal(struct {
		F, CF      []Point
		E, C, T, G Point
		P          PruneSummary
	}{want.Frontier, want.CarbonFrontier, want.EnergyOptimal, want.CostOptimal, want.TCOOptimal, want.CarbonOptimal, want.Pruned})
	if err != nil {
		t.Fatal(err)
	}
	gb, err := json.Marshal(struct {
		F, CF      []Point
		E, C, T, G Point
		P          PruneSummary
	}{got.Frontier, got.CarbonFrontier, got.EnergyOptimal, got.CostOptimal, got.TCOOptimal, got.CarbonOptimal, got.Pruned})
	if err != nil {
		t.Fatal(err)
	}
	if string(wb) != string(gb) {
		t.Error("serialized results are not byte-identical")
	}
}

// TestChunkedMergeMatchesExplore is the distribution soundness proof in
// miniature: evaluating every chunk on isolated engines and merging
// reproduces ExploreContext exactly, for several chunk sizes (including
// one that leaves a short final chunk).
func TestChunkedMergeMatchesExplore(t *testing.T) {
	sweep := smallSweep()
	want := exploreDiscard(t, sweep)
	for _, size := range []int{1, 3, DefaultChunkSize, 100} {
		chunks := evaluateAllChunks(t, sweep, size, false)
		got := mergeChunks(t, sweep, size, chunks)
		requireResultsIdentical(t, want, got)
		checkAccounting(t, got.Pruned)
	}
}

// TestChunkedMergeSurvivesWire bounces every ChunkResult through JSON —
// the distributed pool's payload encoding — before merging. Go floats
// round-trip exactly through encoding/json, so this must still be
// byte-identical, on a stacked sweep and on one with a DRAM axis.
func TestChunkedMergeSurvivesWire(t *testing.T) {
	stacked := smallSweep()
	stacked.Stacked = true // exercise both stacking options over the wire
	for name, sweep := range map[string]Sweep{"stacked": stacked, "dram": dramSweep(t)} {
		t.Run(name, func(t *testing.T) {
			want := exploreDiscard(t, sweep)
			chunks := evaluateAllChunks(t, sweep, DefaultChunkSize, true)
			got := mergeChunks(t, sweep, DefaultChunkSize, chunks)
			requireResultsIdentical(t, want, got)
		})
	}
}

// TestChunkedMergeOrderIndependent merges the same chunk results in
// reverse arrival order — the distributed pool gives no ordering
// guarantee — and must get the same answer.
func TestChunkedMergeOrderIndependent(t *testing.T) {
	sweep := smallSweep()
	want := exploreDiscard(t, sweep)
	chunks := evaluateAllChunks(t, sweep, 2, false)
	rev := make([]ChunkResult, 0, len(chunks))
	for i := len(chunks) - 1; i >= 0; i-- {
		rev = append(rev, chunks[i])
	}
	got := mergeChunks(t, sweep, 2, rev)
	requireResultsIdentical(t, want, got)
}

func TestPlanSweepPartition(t *testing.T) {
	plan, err := PlanSweep(smallSweep(), tco.Default(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Geometries() == 0 {
		t.Fatal("plan has no geometries")
	}
	wantChunks := (plan.Geometries() + 4) / 5
	if plan.NumChunks() != wantChunks {
		t.Errorf("NumChunks = %d, want %d", plan.NumChunks(), wantChunks)
	}
	if plan.ChunkSize() != 5 {
		t.Errorf("ChunkSize = %d, want 5", plan.ChunkSize())
	}
	// The distributed default kicks in for size <= 0.
	plan, err = PlanSweep(smallSweep(), tco.Default(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.ChunkSize() != DistributedChunkSize {
		t.Errorf("ChunkSize = %d, want DistributedChunkSize", plan.ChunkSize())
	}
	// The grid summary must be independent of (and unshared between)
	// mergers: two mergers from one plan cannot alias one Reasons map.
	m1, m2 := NewResultMerger(plan), NewResultMerger(plan)
	m1.Add(ChunkResult{Pruned: PruneSummary{Reasons: map[string]int64{PruneThermal: 7}}})
	if n := m2.summary.Reasons[PruneThermal]; n != 0 {
		t.Errorf("mergers share prune state: %d", n)
	}
}

// TestNumChunksNearMaxInt pins the partition of the default Bitcoin
// sweep (240 geometries) at chunk sizes where len+size-1 overflows:
// any size at or past the geometry count is one chunk, and an engine
// with the largest chunk size explores the whole sweep in it.
func TestNumChunksNearMaxInt(t *testing.T) {
	sweep := Sweep{Base: server.Default(bitcoinRCA())}
	for _, tc := range []struct{ size, want int }{
		{1, 240}, {4, 60}, {64, 4},
		{math.MaxInt/2 + 1, 1}, // 1<<62 on 64-bit platforms
		{math.MaxInt - 5, 1}, {math.MaxInt, 1},
	} {
		plan, err := PlanSweep(sweep, tco.Default(), tc.size)
		if err != nil {
			t.Fatal(err)
		}
		if got := plan.NumChunks(); got != tc.want || plan.Geometries() != 240 {
			t.Errorf("chunk size %d: %d chunks of %d geometries, want %d of 240",
				tc.size, got, plan.Geometries(), tc.want)
		}
	}
	want := exploreDiscard(t, sweep)
	eng := NewEngine(nil)
	eng.DiscardPoints = true
	eng.ChunkSize = math.MaxInt
	got, err := eng.ExploreContext(context.Background(), sweep, tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	requireResultsIdentical(t, want, got)
}

func TestEvaluateChunkErrors(t *testing.T) {
	eng := NewEngine(nil)
	plan, err := PlanSweep(smallSweep(), tco.Default(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.EvaluateChunk(context.Background(), plan, -1); err == nil {
		t.Error("negative chunk index should fail")
	}
	if _, err := eng.EvaluateChunk(context.Background(), plan, plan.NumChunks()); err == nil {
		t.Error("out-of-range chunk index should fail")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.EvaluateChunk(ctx, plan, 0); err == nil {
		t.Error("pre-canceled context should abort the chunk")
	}
}

// TestOperatingPointTable checks buildGrid's operating-point table
// against vlsi.Spec.At bit for bit at every grid voltage of the
// bitcoin, litecoin, XCode and CNN RCAs. The CNN RCA is not voltage
// scalable, so its grid is its nominal point alone. A bitcoin grid
// starting 0.5 nV below the RCA's range passes buildGrid's range check
// but not At, so its first entry must be the failed call's: the zero
// point, flagged not OK.
func TestOperatingPointTable(t *testing.T) {
	btc := server.Default(bitcoin.RCA())
	for _, tc := range []struct {
		name     string
		rca      vlsi.Spec
		voltages []float64
		bad      int
	}{
		{"bitcoin", bitcoin.RCA(), nil, 0},
		{"litecoin", litecoin.RCA(), nil, 0},
		{"xcode", xcode.RCA(), nil, 0},
		{"cnn", cnn.NodeSpec(), nil, 0},
		{"bitcoin below range", bitcoin.RCA(), []float64{btc.RCA.MinVoltage() - 5e-10, 0.5}, 1},
	} {
		grid, err := buildGrid(Sweep{Base: server.Default(tc.rca), Voltages: tc.voltages}, tco.Default())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(grid.ops) != len(grid.voltages) || len(grid.opOK) != len(grid.voltages) {
			t.Fatalf("%s: %d operating points and %d flags for %d voltages",
				tc.name, len(grid.ops), len(grid.opOK), len(grid.voltages))
		}
		if !tc.rca.VoltageScalable && len(grid.voltages) != 1 {
			t.Fatalf("%s: %d grid voltages for an RCA that runs only at its nominal point", tc.name, len(grid.voltages))
		}
		bad := 0
		for i, v := range grid.voltages {
			want, err := tc.rca.At(v)
			if grid.opOK[i] != (err == nil) {
				t.Fatalf("%s, %v V: table OK %v, At error %v", tc.name, v, grid.opOK[i], err)
			}
			if !sameBits(grid.ops[i], want) {
				t.Fatalf("%s, %v V: table %+v, At %+v", tc.name, v, grid.ops[i], want)
			}
			if !grid.opOK[i] {
				bad++
			}
		}
		if bad != tc.bad {
			t.Errorf("%s: %d failed operating points, want %d", tc.name, bad, tc.bad)
		}
	}
}

// sameBits reports whether every field of a and b holds the same
// float64 bit pattern.
func sameBits(a, b vlsi.OperatingPoint) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if math.Float64bits(va.Field(i).Float()) != math.Float64bits(vb.Field(i).Float()) {
			return false
		}
	}
	return true
}
