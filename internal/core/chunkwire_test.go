package core

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"asiccloud/internal/apps/xcode"
	"asiccloud/internal/server"
	"asiccloud/internal/tco"
)

// xcodeSweep is the XCode design space the service sweeps by default:
// the paper's silicon, chip and voltage grids with 1..9 LPDDR3 devices
// per ASIC.
func xcodeSweep(t testing.TB) Sweep {
	t.Helper()
	base, err := xcode.ServerConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	return Sweep{Base: base, DRAMPerASIC: []int{1, 2, 3, 4, 5, 6, 7, 8, 9}}
}

// dramSweep is a small slice of the XCode space with a DRAM axis: its
// points carry a network plan and a DRAM subsystem over the wire.
func dramSweep(t testing.TB) Sweep {
	t.Helper()
	base, err := xcode.ServerConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	return Sweep{
		Base:           base,
		SiliconPerLane: []float64{130, 530, 3000},
		ChipsPerLane:   []int{5, 10, 20},
		DRAMPerASIC:    []int{1, 3, 6, 9},
	}
}

// stackedBitcoinSweep is the paper's bitcoin design space with the
// voltage-stacked variants added.
func stackedBitcoinSweep() Sweep {
	return Sweep{Base: server.Default(bitcoinRCA()), Stacked: true}
}

var xcodeOnce struct {
	sync.Once
	plan   *SweepPlan
	chunks []ChunkResult
	err    error
}

// xcodeChunks evaluates every chunk of the XCode sweep once per test
// binary, on one engine, at PlanSweep's default partition.
func xcodeChunks(t testing.TB) (*SweepPlan, []ChunkResult) {
	t.Helper()
	sweep := xcodeSweep(t)
	xcodeOnce.Do(func() {
		xcodeOnce.plan, xcodeOnce.chunks, xcodeOnce.err = allChunks(sweep)
	})
	if xcodeOnce.err != nil {
		t.Fatal(xcodeOnce.err)
	}
	return xcodeOnce.plan, xcodeOnce.chunks
}

// allChunks evaluates every chunk of the sweep's default partition on
// one engine.
func allChunks(sweep Sweep) (*SweepPlan, []ChunkResult, error) {
	plan, err := PlanSweep(sweep, tco.Default(), 0)
	if err != nil {
		return nil, nil, err
	}
	eng := NewEngine(nil)
	out := make([]ChunkResult, plan.NumChunks())
	for c := range out {
		if out[c], err = eng.EvaluateChunk(context.Background(), plan, c); err != nil {
			return nil, nil, err
		}
	}
	return plan, out, nil
}

// legacyChunk is the full-Point JSON form ChunkResult had before its
// compact wire form: every point spelled out wherever it appears.
type legacyChunk struct {
	Chunk          int          `json:"chunk"`
	NumChunks      int          `json:"num_chunks"`
	Frontier       []Point      `json:"frontier,omitempty"`
	CarbonFrontier []Point      `json:"carbon_frontier,omitempty"`
	EnergyOptimal  *Point       `json:"energy_optimal,omitempty"`
	CostOptimal    *Point       `json:"cost_optimal,omitempty"`
	TCOOptimal     *Point       `json:"tco_optimal,omitempty"`
	CarbonOptimal  *Point       `json:"carbon_optimal,omitempty"`
	Pruned         PruneSummary `json:"pruned"`
}

func legacyOf(cr ChunkResult) legacyChunk {
	return legacyChunk{cr.Chunk, cr.NumChunks, cr.Frontier, cr.CarbonFrontier,
		cr.EnergyOptimal, cr.CostOptimal, cr.TCOOptimal, cr.CarbonOptimal, cr.Pruned}
}

// TestChunkWireRoundTrip: every chunk of the XCode sweep (DRAM axis)
// and of the stacked bitcoin sweep decodes to a DeepEqual copy of
// itself, and its point table holds each distinct configuration once.
func TestChunkWireRoundTrip(t *testing.T) {
	_, xc := xcodeChunks(t)
	_, bc, err := allChunks(stackedBitcoinSweep())
	if err != nil {
		t.Fatal(err)
	}
	for name, chunks := range map[string][]ChunkResult{"xcode": xc, "bitcoin-stacked": bc} {
		t.Run(name, func(t *testing.T) {
			var refs, table, compact, legacy int
			for _, cr := range chunks {
				b, err := cr.MarshalJSON()
				if err != nil {
					t.Fatalf("chunk %d: %v", cr.Chunk, err)
				}
				var got ChunkResult
				if err := got.UnmarshalJSON(b); err != nil {
					t.Fatalf("chunk %d: %v", cr.Chunk, err)
				}
				if !reflect.DeepEqual(got, cr) {
					t.Fatalf("chunk %d does not survive its wire form", cr.Chunk)
				}
				var w chunkWire
				if err := json.Unmarshal(b, &w); err != nil {
					t.Fatal(err)
				}
				seen := make(map[pointKey]bool)
				for _, p := range w.Points {
					k := pointKey{p.Geom, p.Voltage, p.Stacked}
					if seen[k] {
						t.Fatalf("chunk %d: configuration %+v appears twice in the point table", cr.Chunk, k)
					}
					seen[k] = true
				}
				distinct := make(map[sweptConfig]bool)
				for _, ps := range [][]Point{cr.Frontier, cr.CarbonFrontier} {
					for i := range ps {
						distinct[configKey(&ps[i])] = true
						refs++
					}
				}
				for _, p := range []*Point{cr.EnergyOptimal, cr.CostOptimal, cr.TCOOptimal, cr.CarbonOptimal} {
					if p != nil {
						distinct[configKey(p)] = true
						refs++
					}
				}
				if len(w.Points) != len(distinct) {
					t.Fatalf("chunk %d: point table has %d entries for %d distinct configurations",
						cr.Chunk, len(w.Points), len(distinct))
				}
				table += len(w.Points)
				compact += len(b)
				lb, err := json.Marshal(legacyOf(cr))
				if err != nil {
					t.Fatal(err)
				}
				legacy += len(lb)
			}
			if table >= refs {
				t.Errorf("point tables hold %d entries for %d references: nothing shared", table, refs)
			}
			t.Logf("%d chunks: %d point references, %d table entries; %d wire bytes (full-Point form: %d)",
				len(chunks), refs, table, compact, legacy)
		})
	}
}

// sweptConfig is a point's place in the swept design space.
type sweptConfig struct {
	g       geom
	voltage float64
	stacked bool
}

func configKey(p *Point) sweptConfig {
	return sweptConfig{geomOf(&p.Config), p.Config.Voltage, p.Config.Stacked}
}

// realPoints returns a feasible point of the DRAM sweep and another of
// the same geometry at a different voltage.
func realPoints(t *testing.T) (Point, Point) {
	t.Helper()
	eng := NewEngine(nil)
	res, err := eng.Explore(dramSweep(t), tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Points {
		for j := range res.Points {
			a, b := &res.Points[i], &res.Points[j]
			if i != j && geomOf(&a.Config) == geomOf(&b.Config) && a.Config.Voltage != b.Config.Voltage {
				return *a, *b
			}
		}
	}
	t.Fatal("no geometry with two feasible voltages")
	return Point{}, Point{}
}

// TestChunkWireRefusesInconsistentGeometry: the wire form carries one
// Config and one heat sink per geometry, so Marshal must fail rather
// than send two same-geometry points that differ in either.
func TestChunkWireRefusesInconsistentGeometry(t *testing.T) {
	a, b := realPoints(t)
	if _, err := (ChunkResult{Frontier: []Point{a, b}}).MarshalJSON(); err != nil {
		t.Fatalf("consistent geometry refused: %v", err)
	}
	sink := b
	sink.Sink.FinHeight *= 0.9
	inlet := b
	inlet.Config.InletTempC += 5
	for name, cr := range map[string]ChunkResult{
		"heat sink":    {Frontier: []Point{a, sink}},
		"config field": {Frontier: []Point{a}, TCOOptimal: &inlet},
	} {
		if _, err := cr.MarshalJSON(); err == nil {
			t.Errorf("%s: Marshal accepted two same-geometry points that differ", name)
		}
		if _, err := json.Marshal(cr); err == nil {
			t.Errorf("%s: json.Marshal accepted two same-geometry points that differ", name)
		}
	}
}

// TestChunkWireRejectsFullPointForm: a chunk in the full-Point form of
// older builds fails to decode; it is never merged as an empty chunk.
func TestChunkWireRejectsFullPointForm(t *testing.T) {
	a, b := realPoints(t)
	old, err := json.Marshal(legacyOf(ChunkResult{
		Chunk: 2, NumChunks: 5, Frontier: []Point{a, b}, CarbonFrontier: []Point{b},
		EnergyOptimal: &a, CostOptimal: &a, TCOOptimal: &b, CarbonOptimal: &b,
		Pruned: PruneSummary{Generated: 2, Feasible: 2},
	}))
	if err != nil {
		t.Fatal(err)
	}
	var cr ChunkResult
	if err := cr.UnmarshalJSON(old); err == nil {
		t.Errorf("full-Point chunk decoded: %d frontier points", len(cr.Frontier))
	}
	if err := json.Unmarshal(old, &cr); err == nil {
		t.Errorf("full-Point chunk decoded through json.Unmarshal: %d frontier points", len(cr.Frontier))
	}
}

// TestChunkWireRejectsBadIndexes: every table index is checked.
func TestChunkWireRejectsBadIndexes(t *testing.T) {
	a, b := realPoints(t)
	good, err := (ChunkResult{Frontier: []Point{a, b}, TCOOptimal: &b}).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	five, minus := 5, -1
	for name, mutate := range map[string]func(*chunkWire){
		"frontier past table":      func(w *chunkWire) { w.Frontier[1] = len(w.Points) },
		"negative carbon frontier": func(w *chunkWire) { w.CarbonFrontier = []int{-1} },
		"optimum past table":       func(w *chunkWire) { w.EnergyOptimal = &five },
		"negative optimum":         func(w *chunkWire) { w.TCOOptimal = &minus },
		"geometry past table":      func(w *chunkWire) { w.Points[0].Geom = len(w.Geoms) },
		"negative geometry":        func(w *chunkWire) { w.Points[1].Geom = -1 },
		"geometry listed twice":    func(w *chunkWire) { w.Geoms = append(w.Geoms, w.Geoms[0]) },
		"point with own config":    func(w *chunkWire) { w.Points[0].Config = &struct{}{} },
		"point with own sink":      func(w *chunkWire) { w.Points[1].Sink = &struct{}{} },
	} {
		var w chunkWire
		if err := json.Unmarshal(good, &w); err != nil {
			t.Fatal(err)
		}
		mutate(&w)
		bad, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		var cr ChunkResult
		if err := cr.UnmarshalJSON(bad); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// FuzzChunkResultUnmarshal: any input decodes or fails with an error,
// never a panic, and anything that decodes encodes again to a document
// that decodes to the same ChunkResult.
func FuzzChunkResultUnmarshal(f *testing.F) {
	f.Add([]byte(`{"chunk":1,"num_chunks":2,"pruned":{"generated":4,"feasible":0,"reasons":{"thermal_infeasible":4},"duplicates":0}}`))
	f.Add([]byte(`{"chunk":0,"num_chunks":1,"geoms":[{"config":{},"sink":{}}],"points":[{"geom":0,"voltage":0.5}],"frontier":[0,7],"pruned":{}}`))
	// Two table entries at one configuration that differ elsewhere:
	// re-encoding must keep them apart.
	f.Add([]byte(`{"chunk":0,"num_chunks":1,"geoms":[{"config":{},"sink":{}}],"points":[{"geom":0,"voltage":0.5,"Perf":1},{"geom":0,"voltage":0.5,"Perf":2}],"frontier":[0,1],"pruned":{}}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		var cr ChunkResult
		if err := cr.UnmarshalJSON(b); err != nil {
			return
		}
		enc, err := cr.MarshalJSON()
		if err != nil {
			t.Fatalf("decoded chunk does not encode: %v", err)
		}
		var again ChunkResult
		if err := again.UnmarshalJSON(enc); err != nil {
			t.Fatalf("re-encoded chunk does not decode: %v", err)
		}
		if !reflect.DeepEqual(cr, again) {
			t.Fatal("re-encoded chunk decodes to a different value")
		}
	})
}

// TestFuzzSeedsKeepTheirMeaning: the committed seed corpus keeps one
// real XCode chunk and one chunk with no feasible point that decode,
// and one full-Point chunk that does not.
func TestFuzzSeedsKeepTheirMeaning(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzChunkResultUnmarshal")
	for name, want := range map[string]func(ChunkResult, error) bool{
		"xcode-chunk":       func(cr ChunkResult, err error) bool { return err == nil && len(cr.Frontier) > 1 },
		"no-feasible-point": func(cr ChunkResult, err error) bool { return err == nil && cr.Pruned.Feasible == 0 },
		"full-point-form":   func(_ ChunkResult, err error) bool { return err != nil },
	} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") {
			t.Fatalf("%s: not a one-value fuzz corpus file", name)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var cr ChunkResult
		err = cr.UnmarshalJSON([]byte(s))
		if !want(cr, err) {
			t.Errorf("%s: decoded %d frontier points, %d feasible, err %v", name, len(cr.Frontier), cr.Pruned.Feasible, err)
		}
	}
}
