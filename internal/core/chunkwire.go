package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"

	"asiccloud/internal/carbon"
	"asiccloud/internal/server"
	"asiccloud/internal/tco"
)

// ChunkResult's JSON wire form: records plus rows. A chunk's two
// frontiers name many of the same points, and every point of one
// geometry shares its server.Record (the sweep evaluates a geometry's
// whole voltage column into rows against one record,
// server.EvaluateRows). So the wire form stores each record and each
// point once:
//
//   - geoms: per geometry, its server.Record in JSON (Config with
//     Voltage and Stacked cleared, DieArea, Chips, TotalRCAs,
//     LanePowerCap, Sink);
//   - points: each distinct point once, as its geometry's index;
//   - rows: one byte block holding, in points order, each point's
//     server.Row, tco.Breakdown and carbon.Breakdown as fixed-width
//     little-endian numbers (rowCodec), base64 in the JSON;
//   - frontier and carbon_frontier: indexes into points. ChunkResult's
//     optimum fields are not encoded.
//
// The factoring is exact only while that invariant holds, so
// MarshalJSON fails, rather than send a point its geometry entry would
// rebuild differently, when two points of one geometry (same RCAs per
// chip, chips per lane and DRAM per ASIC) have different records. Both
// directions refuse NaN and ±Inf, which the JSON form could never
// carry. UnmarshalJSON checks every index, the rows block's length and
// every bool byte, and a chunk that names points in either older form
// (full Points, or point objects in a table) fails to decode with an
// error instead of merging as empty: a coordinator and its workers must
// run the same build.

// chunkWire is the JSON document of one ChunkResult.
type chunkWire struct {
	Chunk          int             `json:"chunk"`
	NumChunks      int             `json:"num_chunks"`
	Geoms          []server.Record `json:"geoms,omitempty"`
	Points         []int           `json:"points,omitempty"`
	Rows           []byte          `json:"rows,omitempty"`
	Frontier       []int           `json:"frontier,omitempty"`
	CarbonFrontier []int           `json:"carbon_frontier,omitempty"`
	Pruned         PruneSummary    `json:"pruned"`
}

// wireRow is what one point carries beyond its geometry's record. Its
// bytes are whatever rowCodec finds in it, so a new numeric field of
// any of the three travels with no codec edit.
type wireRow struct {
	Row    server.Row
	TCO    tco.Breakdown
	Carbon carbon.Breakdown
}

// rowSize is the byte length of one encoded wireRow; 0 when wireRow has
// a field rowCodec cannot carry, so that every encode and decode of a
// point fails.
var rowSize = func() int {
	var c rowCodec
	var wr wireRow
	if c.walk(reflect.ValueOf(&wr).Elem()) != nil {
		return 0
	}
	return len(c.buf)
}()

// rowCodec moves wireRows to and from their bytes with one field
// walker, so encoder and decoder cannot disagree on the layout: fields
// in declaration order, structs flattened, a bool as one byte 0 or 1,
// an int as the 8 bytes of its two's complement, a float64 as the 8
// bytes of its IEEE 754 bits, all little-endian. A field of any other
// kind, or an unexported one, is an error, as is a NaN or ±Inf either
// way.
type rowCodec struct {
	// buf is appended to when encoding and consumed when decoding.
	buf    []byte
	decode bool
}

// walk encodes v into c.buf, or decodes c.buf into v. v must be
// addressable.
func (c *rowCodec) walk(v reflect.Value) error {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if !f.CanSet() {
				return fmt.Errorf("unexported field %s has no wire form", v.Type().Field(i).Name)
			}
			if err := c.walk(f); err != nil {
				return fmt.Errorf("%s: %w", v.Type().Field(i).Name, err)
			}
		}
		return nil
	case reflect.Bool:
		if !c.decode {
			b := byte(0)
			if v.Bool() {
				b = 1
			}
			c.buf = append(c.buf, b)
			return nil
		}
		b, err := c.next(1)
		if err != nil {
			return err
		}
		if b[0] > 1 {
			return fmt.Errorf("bool byte %d", b[0])
		}
		v.SetBool(b[0] == 1)
		return nil
	case reflect.Int:
		if !c.decode {
			c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(v.Int()))
			return nil
		}
		b, err := c.next(8)
		if err != nil {
			return err
		}
		x := int64(binary.LittleEndian.Uint64(b))
		if v.OverflowInt(x) {
			return fmt.Errorf("int %d overflows", x)
		}
		v.SetInt(x)
		return nil
	case reflect.Float64:
		if !c.decode {
			f := v.Float()
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("non-finite %v", f)
			}
			c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(f))
			return nil
		}
		b, err := c.next(8)
		if err != nil {
			return err
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(b))
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("non-finite %v", f)
		}
		v.SetFloat(f)
		return nil
	}
	return fmt.Errorf("a %s has no fixed-width wire form", v.Type())
}

// next consumes n bytes of a decode.
func (c *rowCodec) next(n int) ([]byte, error) {
	if len(c.buf) < n {
		return nil, fmt.Errorf("rows block ends inside a row")
	}
	b := c.buf[:n]
	c.buf = c.buf[n:]
	return b, nil
}

// MarshalJSON encodes the chunk in its records-plus-rows wire form. It
// fails when two points of one geometry have different records, or
// when a point holds a NaN or ±Inf.
func (cr ChunkResult) MarshalJSON() ([]byte, error) {
	// Every reference may name a distinct point: size the rows block
	// for that, so it never grows.
	refs := len(cr.Frontier) + len(cr.CarbonFrontier)
	t := pointTable{
		rows:     rowCodec{buf: make([]byte, 0, refs*rowSize)},
		geomIdx:  make(map[geom]int),
		pointIdx: make(map[pointKey]int),
	}
	w := chunkWire{
		Chunk:          cr.Chunk,
		NumChunks:      cr.NumChunks,
		Frontier:       t.indexes(cr.Frontier),
		CarbonFrontier: t.indexes(cr.CarbonFrontier),
		Pruned:         cr.Pruned,
	}
	if t.err != nil {
		return nil, fmt.Errorf("core: encode chunk %d: %w", cr.Chunk, t.err)
	}
	w.Geoms, w.Points, w.Rows = t.geoms, t.points, t.rows.buf
	return json.Marshal(w)
}

// UnmarshalJSON decodes the form MarshalJSON writes, joining each row
// to its geometry's record. Malformed input, an index outside its table
// or a rows block of the wrong length included, is an error, never a
// panic.
func (cr *ChunkResult) UnmarshalJSON(b []byte) error {
	var w chunkWire
	if err := json.Unmarshal(b, &w); err != nil {
		return fmt.Errorf("core: decode chunk result: %w", err)
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("core: decode chunk %d: %s", w.Chunk, fmt.Sprintf(format, args...))
	}
	// Distinct geometries keep the decoded points encodable again.
	seen := make(map[geom]bool, len(w.Geoms))
	for i := range w.Geoms {
		g := geomOf(&w.Geoms[i].Config)
		if seen[g] {
			return fail("geometry %+v listed twice", g)
		}
		seen[g] = true
	}
	if len(w.Rows) != len(w.Points)*rowSize {
		return fail("rows block of %d bytes for %d points of %d bytes", len(w.Rows), len(w.Points), rowSize)
	}
	rows := rowCodec{buf: w.Rows, decode: true}
	pts := make([]Point, len(w.Points))
	var wr wireRow
	v := reflect.ValueOf(&wr).Elem()
	for i, gi := range w.Points {
		if gi < 0 || gi >= len(w.Geoms) {
			return fail("point %d names geometry %d of %d", i, gi, len(w.Geoms))
		}
		if err := rows.walk(v); err != nil {
			return fail("row %d: %v", i, err)
		}
		p := &pts[i]
		server.Join(&p.Evaluation, &w.Geoms[gi], &wr.Row)
		p.TCO, p.Carbon = wr.TCO, wr.Carbon
	}
	out := ChunkResult{Chunk: w.Chunk, NumChunks: w.NumChunks, Pruned: w.Pruned}
	var err error
	if out.Frontier, err = pick(pts, w.Frontier); err != nil {
		return fail("frontier: %v", err)
	}
	if out.CarbonFrontier, err = pick(pts, w.CarbonFrontier); err != nil {
		return fail("carbon frontier: %v", err)
	}
	*cr = out
	return nil
}

// pick copies the indexed points out of the table; no indexes give nil.
func pick(pts []Point, idx []int) ([]Point, error) {
	if len(idx) == 0 {
		return nil, nil
	}
	out := make([]Point, len(idx))
	for j, i := range idx {
		if i < 0 || i >= len(pts) {
			return nil, fmt.Errorf("point %d of a table of %d", i, len(pts))
		}
		out[j] = pts[i]
	}
	return out, nil
}

// geomOf is the geometry grid cell a configuration belongs to.
func geomOf(c *server.Config) geom {
	return geom{rcasPerChip: c.RCAsPerChip, chipsLane: c.ChipsPerLane, dramPerASIC: c.DRAM.PerASIC}
}

// pointTable collects a chunk's distinct geometry records and points in
// first-use order, encoding each point's row as it is added. The first
// failure sticks in err.
type pointTable struct {
	geoms []server.Record
	// points holds each entry's geometry index and entries its Point;
	// rows holds the entries' encoded rows.
	points   []int
	entries  []*Point
	rows     rowCodec
	geomIdx  map[geom]int
	pointIdx map[pointKey]int
	err      error
}

// pointKey is a point's place in the sweep: its geometry entry and the
// two swept fields that vary within one geometry.
type pointKey struct {
	geom    int
	voltage float64
	stacked bool
}

// index returns p's entry in the point table, adding p (and its
// geometry record) on first use.
func (t *pointTable) index(p *Point) int {
	if t.err != nil {
		return 0
	}
	rec, r := server.Split(&p.Evaluation)
	g := geomOf(&rec.Config)
	gi, ok := t.geomIdx[g]
	switch {
	case !ok:
		gi = len(t.geoms)
		t.geomIdx[g] = gi
		t.geoms = append(t.geoms, rec)
	case t.geoms[gi] != rec:
		t.err = fmt.Errorf("two points of geometry %+v differ in their record (a Config field other than Voltage and Stacked, die, chip counts, lane power cap or heat sink)", g)
		return 0
	}
	k := pointKey{geom: gi, voltage: r.Voltage, stacked: r.Stacked}
	if pi, ok := t.pointIdx[k]; ok && *t.entries[pi] == *p {
		return pi
	}
	wr := wireRow{Row: r, TCO: p.TCO, Carbon: p.Carbon}
	if err := t.rows.walk(reflect.ValueOf(&wr).Elem()); err != nil {
		t.err = fmt.Errorf("point at geometry %+v, %v V: %w", g, r.Voltage, err)
		return 0
	}
	pi := len(t.points)
	t.pointIdx[k] = pi
	t.points = append(t.points, gi)
	t.entries = append(t.entries, p)
	return pi
}

// indexes maps a point list to table indexes; an empty list gives nil.
func (t *pointTable) indexes(ps []Point) []int {
	if len(ps) == 0 {
		return nil
	}
	out := make([]int, len(ps))
	for i := range ps {
		out[i] = t.index(&ps[i])
	}
	return out
}
