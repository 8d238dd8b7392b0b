package obs

import "time"

// Recorder bundles a metrics registry with span tracing for one run of
// an instrumented subsystem: one per-trace span store backs both the
// Trace(id) lookup the daemon's trace endpoint serves and the
// CLI-oriented Slowest/TraceTree views. A nil *Recorder is a valid
// no-op: every method (and every metric or span it returns) is
// nil-safe, so functions take an optional recorder without guarding
// call sites.
type Recorder struct {
	reg    *Registry
	traces traceStore
	start  time.Time
}

// NewRecorder returns a recorder with a fresh registry.
func NewRecorder() *Recorder {
	rec := &Recorder{reg: NewRegistry(), start: time.Now()}
	rec.reg.SetHelp("asiccloud_spans_truncated_total",
		"spans dropped from trace retention by the per-trace bound")
	return rec
}

// Registry exposes the underlying registry (nil for a nil recorder),
// e.g. to mount it on an HTTP exposition endpoint.
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Start returns when the recorder was created (zero for nil).
func (r *Recorder) Start() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.start
}

// Counter returns the named counter from the recorder's registry.
func (r *Recorder) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.reg.Counter(name, labels...)
}

// Gauge returns the named gauge from the recorder's registry.
func (r *Recorder) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.reg.Gauge(name, labels...)
}

// Histogram returns the named histogram from the recorder's registry.
func (r *Recorder) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.reg.Histogram(name, bounds, labels...)
}

// Span starts a root span on a fresh trace.
func (r *Recorder) Span(name string) *Span {
	if r == nil {
		return nil
	}
	return r.startSpan(name, name, 0, SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}, SpanID{})
}

func (r *Recorder) startSpan(path, name string, depth int, sc SpanContext, parent SpanID) *Span {
	if r == nil {
		return nil
	}
	s := &Span{rec: r, path: path, name: name, depth: depth, sc: sc, parent: parent, start: time.Now()}
	if r.traces.add(s) {
		r.Counter("asiccloud_spans_truncated_total").Inc()
	}
	return s
}
