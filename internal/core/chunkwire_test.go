package core

import (
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
			var refs, table, geoms, rows, compact, legacy int
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
				// Every referenced configuration needs an entry, so as
				// many entries as distinct configurations means each
				// appears once.
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
				geoms += len(w.Geoms)
				rows += len(w.Rows)
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
			t.Logf("%d chunks: %d point references, %d table entries over %d geometry records; %d wire bytes, %d of them rows of %d bytes (full-Point form: %d)",
				len(chunks), refs, table, geoms, compact, rows, rowSize, legacy)
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
		a := res.Points[i].Point()
		for j := range res.Points {
			b := res.Points[j].Point()
			if i != j && geomOf(&a.Config) == geomOf(&b.Config) && a.Config.Voltage != b.Config.Voltage {
				return a, b
			}
		}
	}
	t.Fatal("no geometry with two feasible voltages")
	return Point{}, Point{}
}

// TestChunkWireRefusesInconsistentGeometry: the wire form carries one
// record per geometry, so Marshal must fail rather than send two
// same-geometry points whose records differ.
func TestChunkWireRefusesInconsistentGeometry(t *testing.T) {
	a, b := realPoints(t)
	if _, err := (ChunkResult{Frontier: []Point{a, b}}).MarshalJSON(); err != nil {
		t.Fatalf("consistent geometry refused: %v", err)
	}
	sink := b
	sink.Sink.FinHeight *= 0.9
	inlet := b
	inlet.Config.InletTempC += 5
	capacity := b
	capacity.LanePowerCap *= 1.1
	for name, cr := range map[string]ChunkResult{
		"heat sink":      {Frontier: []Point{a, sink}},
		"config field":   {Frontier: []Point{a}, TCOOptimal: &inlet},
		"lane power cap": {CarbonFrontier: []Point{capacity, a}},
	} {
		if _, err := cr.MarshalJSON(); err == nil {
			t.Errorf("%s: Marshal accepted two same-geometry points that differ", name)
		}
		if _, err := json.Marshal(cr); err == nil {
			t.Errorf("%s: json.Marshal accepted two same-geometry points that differ", name)
		}
	}
}

// TestChunkWireRefusesNonFinite: a NaN or ±Inf anywhere in a point,
// row or record, fails the encode; the JSON form could never carry one.
func TestChunkWireRefusesNonFinite(t *testing.T) {
	a, _ := realPoints(t)
	for name, set := range map[string]func(*Point){
		"NaN TCO term":         func(p *Point) { p.TCO.Electricity = math.NaN() },
		"+Inf carbon term":     func(p *Point) { p.Carbon.EmbodiedKg = math.Inf(1) },
		"-Inf delivery field":  func(p *Point) { p.Delivery.WallPower = math.Inf(-1) },
		"NaN voltage":          func(p *Point) { p.Config.Voltage = math.NaN() },
		"+Inf record die area": func(p *Point) { p.DieArea = math.Inf(1) },
	} {
		p := a
		set(&p)
		if b, err := (ChunkResult{Frontier: []Point{p}}).MarshalJSON(); err == nil {
			t.Errorf("%s: encoded to %d bytes", name, len(b))
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

// goodWire is a real two-point chunk in its wire form.
func goodWire(t *testing.T) chunkWire {
	t.Helper()
	a, b := realPoints(t)
	good, err := (ChunkResult{Frontier: []Point{a, b}, TCOOptimal: &b}).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var w chunkWire
	if err := json.Unmarshal(good, &w); err != nil {
		t.Fatal(err)
	}
	if len(w.Points) != 2 || len(w.Geoms) != 1 {
		t.Fatalf("two points of one geometry encode to %d points over %d records", len(w.Points), len(w.Geoms))
	}
	return w
}

// decodeMutated re-encodes the document after mutate and decodes it.
func decodeMutated(t *testing.T, w chunkWire, mutate func(*chunkWire)) (ChunkResult, error) {
	t.Helper()
	w.Geoms = slices.Clone(w.Geoms)
	w.Points = slices.Clone(w.Points)
	w.Rows = slices.Clone(w.Rows)
	w.Frontier = slices.Clone(w.Frontier)
	mutate(&w)
	bad, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var cr ChunkResult
	err = cr.UnmarshalJSON(bad)
	return cr, err
}

// TestChunkWireRejectsBadIndexes: every table index is checked.
func TestChunkWireRejectsBadIndexes(t *testing.T) {
	good := goodWire(t)
	five, minus := 5, -1
	for name, mutate := range map[string]func(*chunkWire){
		"frontier past table":      func(w *chunkWire) { w.Frontier[1] = len(w.Points) },
		"negative carbon frontier": func(w *chunkWire) { w.CarbonFrontier = []int{-1} },
		"optimum past table":       func(w *chunkWire) { w.EnergyOptimal = &five },
		"negative optimum":         func(w *chunkWire) { w.TCOOptimal = &minus },
		"geometry past table":      func(w *chunkWire) { w.Points[0] = len(w.Geoms) },
		"negative geometry":        func(w *chunkWire) { w.Points[1] = -1 },
		"geometry listed twice":    func(w *chunkWire) { w.Geoms = append(w.Geoms, w.Geoms[0]) },
	} {
		if _, err := decodeMutated(t, good, mutate); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestChunkWireRejectsMalformedRows: the rows block must hold exactly
// one row per point, every bool byte must be 0 or 1, and no number may
// be NaN or ±Inf. Row 0 starts with Voltage (8 bytes), then Stacked.
func TestChunkWireRejectsMalformedRows(t *testing.T) {
	good := goodWire(t)
	// The layout the offsets below assume: setting the Stacked byte
	// to 1 decodes a stacked first point.
	cr, err := decodeMutated(t, good, func(w *chunkWire) { w.Rows[8] = 1 })
	if err != nil || !cr.Frontier[0].Config.Stacked || cr.Frontier[1].Config.Stacked {
		t.Fatalf("byte 8 is not the first row's Stacked flag (err %v)", err)
	}
	putFloat := func(f float64) func(*chunkWire) {
		return func(w *chunkWire) { binary.LittleEndian.PutUint64(w.Rows, math.Float64bits(f)) }
	}
	for name, mutate := range map[string]func(*chunkWire){
		"one byte short":   func(w *chunkWire) { w.Rows = w.Rows[:len(w.Rows)-1] },
		"one row too long": func(w *chunkWire) { w.Rows = append(w.Rows, w.Rows[:rowSize]...) },
		"one row short":    func(w *chunkWire) { w.Rows = w.Rows[:rowSize] },
		"no rows":          func(w *chunkWire) { w.Rows = nil },
		"bool byte of 2":   func(w *chunkWire) { w.Rows[8] = 2 },
		"NaN voltage":      putFloat(math.NaN()),
		"+Inf voltage":     putFloat(math.Inf(1)),
		"-Inf voltage":     putFloat(math.Inf(-1)),
		"NaN last number": func(w *chunkWire) {
			binary.LittleEndian.PutUint64(w.Rows[len(w.Rows)-8:], math.Float64bits(math.NaN()))
		},
	} {
		if cr, err := decodeMutated(t, good, mutate); err == nil {
			t.Errorf("%s: decoded %d frontier points without error", name, len(cr.Frontier))
		}
	}
}

// TestWireRowCarriesEveryField: rowCodec carries every field of
// server.Row, tco.Breakdown and carbon.Breakdown, so a new numeric
// field travels with no codec edit: a row whose every number differs
// survives the bytes exactly, at rowSize bytes.
func TestWireRowCarriesEveryField(t *testing.T) {
	if rowSize == 0 {
		var c rowCodec
		var wr wireRow
		t.Fatalf("wireRow has no wire form: %v", c.walk(reflect.ValueOf(&wr).Elem()))
	}
	var in wireRow
	n := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		n++
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.Float64:
			v.SetFloat(float64(n) + 0.25)
		case reflect.Int:
			v.SetInt(int64(-n))
		case reflect.Bool:
			v.SetBool(n%2 == 1)
		}
	}
	fill(reflect.ValueOf(&in).Elem())
	enc := rowCodec{}
	if err := enc.walk(reflect.ValueOf(&in).Elem()); err != nil {
		t.Fatal(err)
	}
	if len(enc.buf) != rowSize {
		t.Fatalf("row encodes to %d bytes, rowSize is %d", len(enc.buf), rowSize)
	}
	var out wireRow
	dec := rowCodec{buf: enc.buf, decode: true}
	if err := dec.walk(reflect.ValueOf(&out).Elem()); err != nil {
		t.Fatal(err)
	}
	if out != in || len(dec.buf) != 0 {
		t.Errorf("row does not survive its bytes:\n got %+v\nwant %+v", out, in)
	}
}

// TestRowCodecRefusesOtherKinds: a field rowCodec has no fixed-width
// form for fails both ways, so adding one to Row or either breakdown
// fails the tests above at once instead of dropping off the wire.
func TestRowCodecRefusesOtherKinds(t *testing.T) {
	type unexported struct {
		X float64
		y float64
	}
	for name, v := range map[string]any{
		"string":     &struct{ X, S string }{},
		"pointer":    &struct{ P *float64 }{},
		"slice":      &struct{ F []float64 }{},
		"float32":    &struct{ F float32 }{},
		"nested map": &struct{ In struct{ M map[string]int } }{},
		"unexported": &unexported{},
	} {
		enc := rowCodec{}
		if err := enc.walk(reflect.ValueOf(v).Elem()); err == nil {
			t.Errorf("%s: encoded", name)
		}
		dec := rowCodec{buf: make([]byte, 64), decode: true}
		if err := dec.walk(reflect.ValueOf(v).Elem()); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// rowsOf encodes wire rows for a fuzz seed.
func rowsOf(f *testing.F, rows ...wireRow) string {
	f.Helper()
	var c rowCodec
	for i := range rows {
		if err := c.walk(reflect.ValueOf(&rows[i]).Elem()); err != nil {
			f.Fatal(err)
		}
	}
	return base64.StdEncoding.EncodeToString(c.buf)
}

// FuzzChunkResultUnmarshal: any input decodes or fails with an error,
// never a panic, and anything that decodes encodes again to a document
// that decodes to the same ChunkResult.
func FuzzChunkResultUnmarshal(f *testing.F) {
	f.Add([]byte(`{"chunk":1,"num_chunks":2,"pruned":{"generated":4,"feasible":0,"reasons":{"thermal_infeasible":4},"duplicates":0}}`))
	row := wireRow{Row: server.Row{Voltage: 0.5}}
	f.Add([]byte(`{"chunk":0,"num_chunks":1,"geoms":[{}],"points":[0],"rows":"` + rowsOf(f, row) + `","frontier":[0,7],"pruned":{}}`))
	// Two table entries at one configuration that differ elsewhere:
	// re-encoding must keep them apart.
	other := row
	other.Row.Perf = 2
	f.Add([]byte(`{"chunk":0,"num_chunks":1,"geoms":[{}],"points":[0,0],"rows":"` + rowsOf(f, row, other) + `","frontier":[0,1],"pruned":{}}`))
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

// TestFuzzSeedsKeepTheirMeaning: every committed seed keeps the role
// its name gives it. One real XCode chunk and one chunk with no
// feasible point decode; a chunk in the full-Point form and one in the
// point-table form before records plus rows do not.
func TestFuzzSeedsKeepTheirMeaning(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzChunkResultUnmarshal")
	want := map[string]func(ChunkResult, error) bool{
		"xcode-chunk":       func(cr ChunkResult, err error) bool { return err == nil && len(cr.Frontier) > 1 },
		"no-feasible-point": func(cr ChunkResult, err error) bool { return err == nil && cr.Pruned.Feasible == 0 },
		"full-point-form":   func(_ ChunkResult, err error) bool { return err != nil },
		"point-table-form":  func(_ ChunkResult, err error) bool { return err != nil },
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(want) {
		t.Errorf("%d seeds in %s, %d with a known meaning", len(files), dir, len(want))
	}
	for _, file := range files {
		name := file.Name()
		ok, known := want[name]
		if !known {
			t.Errorf("seed %s has no known meaning", name)
			continue
		}
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
		if !ok(cr, err) {
			t.Errorf("%s: decoded %d frontier points, %d feasible, err %v", name, len(cr.Frontier), cr.Pruned.Feasible, err)
		}
	}
}
