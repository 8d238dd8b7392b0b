// Package obs is the repository's dependency-free observability layer:
// a metrics registry (counters, gauges, histograms with fixed bucket
// layouts, scrape-time collectors), context-carrying span tracing with
// W3C trace/span IDs and traceparent propagation, trace-correlated
// structured logging over log/slog, a Prometheus-text / expvar / pprof
// HTTP exposition endpoint, and a structured end-of-run report that
// serializes to JSON so perf trajectories can be diffed mechanically
// across PRs.
//
// Everything is safe for concurrent use and nil-safe: methods on a nil
// *Registry, *Recorder, *Counter, *Gauge, *Histogram or *Span are
// no-ops, so instrumented code never needs to guard call sites. The
// package uses only the standard library.
//
// # Entry points
//
// NewRecorder builds the root handle commands thread through the stack;
// Serve (or Handler) exposes its Registry over HTTP; Instrument wraps
// HTTP handlers with the standard request counter, latency histogram,
// in-flight gauge, trace extraction/injection and an access-log line,
// labeled by route pattern — never by raw path, so label cardinality
// stays bounded. NewReport renders the end-of-run summary.
// RegisterRuntimeMetrics adds goroutine/heap/GC gauges refreshed at
// scrape time.
//
// # Traces
//
// Every span carries a SpanContext (trace ID + span ID) and a parent
// link. Recorder.StartSpan(ctx, name) parents under whatever ctx holds
// — a local *Span (WithSpan), a remote identity extracted from a
// traceparent header (WithSpanContext), or nothing, starting a fresh
// trace — and returns ctx with the new span installed, so one request
// threads a single connected trace through HTTP handler → job → engine
// chunks. Recorder.Trace(id) returns the retained spans of one trace
// for JSON rendering (BuildSpanTree nests them), and the CLI views
// Slowest and TraceTree read the same store. Retention is bounded per
// trace and by trace count (whole traces are evicted oldest first);
// spans dropped to the per-trace bound are counted in
// asiccloud_spans_truncated_total.
//
// # Logs
//
// NewLogger returns a JSON slog logger whose records pick up
// trace_id/span_id from the context automatically (use the *Context
// logging methods). NopLogger/OrNop keep call sites guard-free.
//
// # Units
//
// Histograms that time things observe seconds; gauges and counters name
// their unit in the metric name (…_seconds, …_total) following
// Prometheus conventions.
package obs
