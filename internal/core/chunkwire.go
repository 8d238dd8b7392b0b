package core

import (
	"encoding/json"
	"fmt"

	"asiccloud/internal/server"
	"asiccloud/internal/thermal"
)

// ChunkResult's JSON wire form. A chunk's two frontiers and four optima
// name mostly the same points, and setupGeom gives every point of one
// geometry the same server.Config (up to Voltage and Stacked) and the
// same thermal plan, hence the same heat sink. So the wire form stores
// each of them once:
//
//   - geoms: per geometry, its shared Config with Voltage and Stacked
//     cleared, and its HeatSink;
//   - points: each distinct point once, as its geometry's index, its
//     voltage and stacking, and the rest of the Point;
//   - frontier, carbon_frontier and the four optima: indexes into
//     points.
//
// The factoring is exact only while that invariant holds, so
// MarshalJSON fails, rather than send a point its geometry entry would
// rebuild differently, when two points of one geometry (same RCAs per
// chip, chips per lane and DRAM per ASIC) differ in any other Config
// field or in their heat sink. UnmarshalJSON checks every index, and a
// chunk in the full-Point form of older builds fails to decode with an
// error instead of merging as empty: a coordinator and its workers must
// run the same build.

// chunkWire is the JSON document of one ChunkResult.
type chunkWire struct {
	Chunk          int          `json:"chunk"`
	NumChunks      int          `json:"num_chunks"`
	Geoms          []wireGeom   `json:"geoms,omitempty"`
	Points         []wirePoint  `json:"points,omitempty"`
	Frontier       []int        `json:"frontier,omitempty"`
	CarbonFrontier []int        `json:"carbon_frontier,omitempty"`
	EnergyOptimal  *int         `json:"energy_optimal,omitempty"`
	CostOptimal    *int         `json:"cost_optimal,omitempty"`
	TCOOptimal     *int         `json:"tco_optimal,omitempty"`
	CarbonOptimal  *int         `json:"carbon_optimal,omitempty"`
	Pruned         PruneSummary `json:"pruned"`
}

// wireGeom is the part every point of one geometry shares.
type wireGeom struct {
	Config server.Config    `json:"config"`
	Sink   thermal.HeatSink `json:"sink"`
}

// wirePoint is one entry of the point table: its geometry's index, the
// two Config fields that vary within a geometry, and the rest of the
// Point, embedded by pointer so the table holds no copies.
type wirePoint struct {
	Geom    int     `json:"geom"`
	Voltage float64 `json:"voltage"`
	Stacked bool    `json:"stacked,omitempty"`
	// Config and Sink shadow the embedded Point's fields of the same
	// names (encoding/json lets the shallower field win), so the
	// point's own copies stay off the wire. A point that sends either
	// is refused.
	Config *struct{} `json:"Config,omitempty"`
	Sink   *struct{} `json:"Sink,omitempty"`
	*Point
}

// MarshalJSON encodes the chunk in its compact wire form. It fails when
// two points of one geometry differ in a Config field other than
// Voltage and Stacked, or in their heat sink.
func (cr ChunkResult) MarshalJSON() ([]byte, error) {
	t := pointTable{geomIdx: make(map[geom]int), pointIdx: make(map[pointKey]int)}
	w := chunkWire{
		Chunk:          cr.Chunk,
		NumChunks:      cr.NumChunks,
		Frontier:       t.indexes(cr.Frontier),
		CarbonFrontier: t.indexes(cr.CarbonFrontier),
		EnergyOptimal:  t.optimum(cr.EnergyOptimal),
		CostOptimal:    t.optimum(cr.CostOptimal),
		TCOOptimal:     t.optimum(cr.TCOOptimal),
		CarbonOptimal:  t.optimum(cr.CarbonOptimal),
		Pruned:         cr.Pruned,
	}
	if t.err != nil {
		return nil, fmt.Errorf("core: encode chunk %d: %w", cr.Chunk, t.err)
	}
	w.Geoms, w.Points = t.geoms, t.points
	return json.Marshal(w)
}

// UnmarshalJSON decodes the form MarshalJSON writes, rebuilding each
// point from its geometry entry. Malformed input, an index outside its
// table included, is an error, never a panic.
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
	pts := make([]Point, len(w.Points))
	for i := range w.Points {
		wp := &w.Points[i]
		if wp.Config != nil || wp.Sink != nil {
			return fail("point %d carries its own Config or Sink", i)
		}
		if wp.Geom < 0 || wp.Geom >= len(w.Geoms) {
			return fail("point %d names geometry %d of %d", i, wp.Geom, len(w.Geoms))
		}
		g := &w.Geoms[wp.Geom]
		p := &pts[i]
		if wp.Point != nil {
			*p = *wp.Point
		}
		p.Config = g.Config
		p.Config.Voltage, p.Config.Stacked = wp.Voltage, wp.Stacked
		p.Sink = g.Sink
	}
	out := ChunkResult{Chunk: w.Chunk, NumChunks: w.NumChunks, Pruned: w.Pruned}
	var err error
	if out.Frontier, err = pick(pts, w.Frontier); err != nil {
		return fail("frontier: %v", err)
	}
	if out.CarbonFrontier, err = pick(pts, w.CarbonFrontier); err != nil {
		return fail("carbon frontier: %v", err)
	}
	for _, o := range [...]struct {
		name string
		idx  *int
		dst  **Point
	}{
		{"energy optimum", w.EnergyOptimal, &out.EnergyOptimal},
		{"cost optimum", w.CostOptimal, &out.CostOptimal},
		{"TCO optimum", w.TCOOptimal, &out.TCOOptimal},
		{"carbon optimum", w.CarbonOptimal, &out.CarbonOptimal},
	} {
		if o.idx == nil {
			continue
		}
		p, err := pick(pts, []int{*o.idx})
		if err != nil {
			return fail("%s: %v", o.name, err)
		}
		*o.dst = &p[0]
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

// pointTable collects a chunk's distinct geometries and points in
// first-use order. The first failure sticks in err.
type pointTable struct {
	geoms    []wireGeom
	points   []wirePoint
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
// geometry) on first use.
func (t *pointTable) index(p *Point) int {
	if t.err != nil {
		return 0
	}
	shared := p.Config
	shared.Voltage, shared.Stacked = 0, false
	g := geomOf(&shared)
	gi, ok := t.geomIdx[g]
	switch {
	case !ok:
		gi = len(t.geoms)
		t.geomIdx[g] = gi
		t.geoms = append(t.geoms, wireGeom{Config: shared, Sink: p.Sink})
	case t.geoms[gi].Config != shared:
		t.err = fmt.Errorf("two points of geometry %+v differ in a Config field other than Voltage and Stacked", g)
		return 0
	case t.geoms[gi].Sink != p.Sink:
		t.err = fmt.Errorf("two points of geometry %+v differ in their heat sink", g)
		return 0
	}
	k := pointKey{geom: gi, voltage: p.Config.Voltage, stacked: p.Config.Stacked}
	if pi, ok := t.pointIdx[k]; ok && *t.points[pi].Point == *p {
		return pi
	}
	pi := len(t.points)
	t.pointIdx[k] = pi
	t.points = append(t.points, wirePoint{Geom: gi, Voltage: p.Config.Voltage, Stacked: p.Config.Stacked, Point: p})
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

// optimum maps an optional point to an optional table index.
func (t *pointTable) optimum(p *Point) *int {
	if p == nil {
		return nil
	}
	i := t.index(p)
	return &i
}
