package core

import (
	"testing"

	"asiccloud/internal/pareto"
	"asiccloud/internal/server"
	"asiccloud/internal/tco"
)

// Layer microbenchmarks for the distributed sweep's per-chunk stages.
// One op of the codec and merge benchmarks is one XCode sweep's worth
// of chunk results at PlanSweep's default partition (32 chunks of
// DistributedChunkSize geometries).

// BenchmarkChunkResultCodec encodes and decodes every chunk result of
// the XCode sweep, as its workers and its coordinator do, and reports
// the encoded bytes per sweep: about 0.8 MB, 136 geometry records in
// JSON and 1,350 distinct points as 291-byte binary rows, base64 (the
// all-JSON form of older builds took 1.7 MB).
func BenchmarkChunkResultCodec(b *testing.B) {
	_, chunks := xcodeChunks(b)
	wire := make([][]byte, len(chunks))
	var size int
	for i, cr := range chunks {
		var err error
		if wire[i], err = cr.MarshalJSON(); err != nil {
			b.Fatal(err)
		}
		size += len(wire[i])
	}
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, cr := range chunks {
				if _, err := cr.MarshalJSON(); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(size), "wire-B/sweep")
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, w := range wire {
				var cr ChunkResult
				if err := cr.UnmarshalJSON(w); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(size), "wire-B/sweep")
	})
}

// BenchmarkResultMergerAdd folds every chunk result of the XCode sweep
// into a fresh merger, as the coordinator does.
func BenchmarkResultMergerAdd(b *testing.B) {
	plan, chunks := xcodeChunks(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewResultMerger(plan)
		for _, cr := range chunks {
			m.Add(cr)
		}
	}
}

// BenchmarkFoldAddPoint measures the sweep's fold step: one op folds
// every feasible row of the stacked bitcoin sweep, in evaluation order
// (keep mode's Result.Points), into a fresh (dollars, watts) fold
// through pareto.Fold.AddAt, the entry sweepAcc.add uses, which takes
// the row's precomputed coordinates and copies a row only when it
// survives.
func BenchmarkFoldAddPoint(b *testing.B) {
	res, err := NewEngine(nil).Explore(stackedBitcoinSweep(), tco.Default())
	if err != nil {
		b.Fatal(err)
	}
	rows := res.Points
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := pareto.NewFold(rowDollars, rowWatts)
		for j := range rows {
			r := &rows[j]
			f.AddAt(r.DollarsPerOp, r.WattsPerOp, r)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/add")
}

// BenchmarkThermalPlan measures the thermal-plan layer alone: one op is
// a fresh engine planning every geometry of the XCode DRAM 1..9 sweep
// (2043 plans over 40 lane shapes), the cold plans each design-xcode
// sweep starts with. Run it with -benchmem.
func BenchmarkThermalPlan(b *testing.B) {
	grid, err := buildGrid(xcodeSweep(b), tco.Default())
	if err != nil {
		b.Fatal(err)
	}
	cfgs := make([]server.Config, 0, len(grid.work))
	for _, g := range grid.work {
		if cfg, err := grid.config(g); err == nil {
			cfgs = append(cfgs, cfg)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(nil)
		for j := range cfgs {
			e.thermalPlan(cfgs[j])
		}
	}
}
