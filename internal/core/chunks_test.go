package core

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"asiccloud/internal/tco"
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
