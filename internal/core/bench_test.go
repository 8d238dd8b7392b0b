package core

import (
	"context"
	"testing"

	"asiccloud/internal/pareto"
	"asiccloud/internal/tco"
)

// Layer microbenchmarks for the distributed sweep's per-chunk stages.
// One op of the codec and merge benchmarks is one XCode sweep's worth
// of chunk results (511 chunks at the default chunk size).

// BenchmarkChunkResultCodec encodes and decodes every chunk result of
// the XCode sweep, as its workers and its coordinator do, and reports
// the encoded bytes per sweep.
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

// BenchmarkFoldAddPoint measures pareto.Fold.Add on core.Points, about
// a kilobyte each, which the fold's metric closures take by value: one
// op folds every feasible point of the stacked bitcoin sweep, in
// evaluation order, into a fresh (dollars, watts) fold.
func BenchmarkFoldAddPoint(b *testing.B) {
	plan, err := PlanSweep(stackedBitcoinSweep(), tco.Default(), 0)
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine(nil)
	ctr := newExploreCounters(nil)
	w := chunkWorker{acc: newSweepAcc(PruneSummary{}), ctr: &ctr}
	var pts []Point
	for c := 0; c < plan.NumChunks(); c++ {
		chunk, err := eng.evalChunk(context.Background(), plan, c, &w, true, nil)
		if err != nil {
			b.Fatal(err)
		}
		pts = append(pts, chunk...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := pareto.NewFold(pointDollars, pointWatts)
		for _, p := range pts {
			f.Add(p)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pts)), "ns/add")
}
