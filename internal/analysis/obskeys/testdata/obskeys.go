// Package fixture exercises obskeys: dynamic and wrongly-cased slog
// keys, metric names off the asiccloud_ convention and bad label keys
// (logging under a held mutex is lockheld's check).
package fixture

import (
	"log/slog"
	"sync"
)

type Counter struct{ n int64 }

func (c *Counter) Inc() { c.n++ }

// Recorder mimics the obs metric factory surface.
type Recorder struct {
	mu    sync.Mutex
	state int
}

func (r *Recorder) Counter(name string, labels ...string) *Counter { return &Counter{} }
func (r *Recorder) Gauge(name string, labels ...string) *Counter   { return &Counter{} }
func (r *Recorder) Histogram(name string, bounds []float64, labels ...string) *Counter {
	return &Counter{}
}
func (r *Recorder) SetHelp(name, help string) {}

const goodKey = "configs_per_sec"

// logKeys mixes good and bad slog keys.
func logKeys(log *slog.Logger, job string, n int) {
	log.Info("sweep done", "configs", n, goodKey, n)       // clean: constant snake_case keys
	log.Info("sweep done", job, n)                         // flagged: non-constant key
	log.Warn("sweep slow", "chunkSize", n)                 // flagged: camelCase key
	log.Error("sweep failed", slog.Int("exitCode", n))     // flagged: camelCase attr key
	log.Info("ok", slog.String("trace_id", job), "tdp", n) // clean: attr slot then pair
	slog.Info("boot", "gitSha", job)                       // flagged: camelCase via package-level call
}

// metricNames mixes good and bad metric identifiers.
func metricNames(r *Recorder, kind string) {
	r.Counter("asiccloud_sweeps_total", "phase", "fold").Inc()   // clean
	r.Counter("sweepCount").Inc()                                // flagged: off-convention name
	r.Gauge("asiccloud_" + kind).Inc()                           // flagged: non-constant name
	r.Histogram("asiccloud_chunk_seconds", nil, "chunkId", kind) // flagged: camelCase label key
	r.SetHelp("asiccloud_sweeps_total", "completed sweeps")      // clean
	r.SetHelp("sweep.count", "dotted name")                      // flagged: off-convention name
}
