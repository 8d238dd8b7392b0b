package core

import (
	"testing"

	"asiccloud/internal/pareto"
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

// BenchmarkFoldAddPoint measures the sweep's fold step: one op folds
// every feasible row of the stacked bitcoin sweep, in evaluation order,
// into a fresh (dollars, watts) fold through pareto.Fold.AddAt, the
// entry sweepAcc.add uses, which takes the row's precomputed
// coordinates and copies a row only when it survives.
func BenchmarkFoldAddPoint(b *testing.B) {
	rows := sweepRows(b, stackedBitcoinSweep())
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
