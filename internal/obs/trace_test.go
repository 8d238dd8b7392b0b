package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"log/slog"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	back, ok := ParseTraceparent(sc.Traceparent())
	if !ok {
		t.Fatalf("ParseTraceparent(%q) failed", sc.Traceparent())
	}
	if back != sc {
		t.Fatalf("round trip changed identity: %+v != %+v", back, sc)
	}
	for _, bad := range []string{
		"",
		"00-short-0011223344556677-01",
		"00-000102030405060708090a0b0c0d0e0f-badhex!!havefunx-01",
		"00-00000000000000000000000000000000-0011223344556677-01", // zero trace ID
		"00-000102030405060708090a0b0c0d0e0f-0000000000000000-01", // zero span ID
		"garbage",
	} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent(%q) accepted invalid input", bad)
		}
	}
}

func TestStartSpanParenting(t *testing.T) {
	rec := NewRecorder()
	ctx := context.Background()

	// Fresh trace when the context is bare.
	ctx1, root := rec.StartSpan(ctx, "request")
	if root.TraceID().IsZero() {
		t.Fatal("root span has no trace ID")
	}
	if FromContext(ctx1) != root {
		t.Fatal("StartSpan did not install the span in the context")
	}

	// Children share the trace and link to the parent.
	ctx2, child := rec.StartSpan(ctx1, "job")
	if child.TraceID() != root.TraceID() {
		t.Error("child changed trace ID")
	}
	if child.path != "request/job" {
		t.Errorf("child path = %q, want request/job", child.path)
	}
	_, grand := rec.StartSpan(ctx2, "explore")
	if grand.TraceID() != root.TraceID() {
		t.Error("grandchild changed trace ID")
	}

	// A remote parent (traceparent extraction) is joined, not replaced.
	remote := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	_, joined := rec.StartSpan(WithSpanContext(context.Background(), remote), "worker")
	if joined.TraceID() != remote.TraceID {
		t.Error("span under a remote parent must keep the remote trace ID")
	}
	info := joined.Info()
	if info.ParentSpanID != remote.SpanID.String() {
		t.Errorf("remote parent link = %q, want %s", info.ParentSpanID, remote.SpanID)
	}

	// Nil recorder: pass-through, nil span, no panic.
	var nilRec *Recorder
	nctx, nspan := nilRec.StartSpan(ctx, "x")
	if nspan != nil || nctx != ctx {
		t.Error("nil recorder StartSpan must be a pass-through")
	}
	nspan.End()
}

func TestRecorderTraceAndTree(t *testing.T) {
	rec := NewRecorder()
	ctx, root := rec.StartSpan(context.Background(), "request")
	ctx, job := rec.StartSpan(ctx, "job")
	_, chunk := rec.StartSpan(ctx, "chunk")
	chunk.End()
	job.End()
	root.End()

	spans, truncated := rec.Trace(root.TraceID())
	if truncated != 0 {
		t.Errorf("truncated = %d, want 0", truncated)
	}
	if len(spans) != 3 {
		t.Fatalf("trace has %d spans, want 3", len(spans))
	}
	for _, s := range spans {
		if s.TraceID != root.TraceID().String() {
			t.Errorf("span %s trace ID %s != %s", s.Name, s.TraceID, root.TraceID())
		}
		if !s.Ended || s.Seconds < 0 {
			t.Errorf("span %s not finalized: %+v", s.Name, s)
		}
	}
	tree := BuildSpanTree(spans)
	if len(tree) != 1 || tree[0].Name != "request" {
		t.Fatalf("tree roots = %+v, want single request root", tree)
	}
	if len(tree[0].Children) != 1 || tree[0].Children[0].Name != "job" ||
		len(tree[0].Children[0].Children) != 1 {
		t.Fatalf("tree shape wrong: %+v", tree[0])
	}

	// Unknown and zero trace IDs return nothing.
	if got, _ := rec.Trace(NewTraceID()); got != nil {
		t.Error("unknown trace returned spans")
	}
	if got, _ := rec.Trace(TraceID{}); got != nil {
		t.Error("zero trace ID returned spans")
	}

	// A second, unrelated trace does not leak into the first.
	other := rec.Span("other")
	other.End()
	if spans, _ := rec.Trace(root.TraceID()); len(spans) != 3 {
		t.Error("unrelated trace polluted the first trace")
	}
}

func TestTraceStoreEviction(t *testing.T) {
	rec := NewRecorder()
	first := rec.Span("first")
	first.End()
	// Evict "first" by creating maxTraces more traces.
	for i := 0; i < maxTraces; i++ {
		rec.Span("filler").End()
	}
	if spans, _ := rec.Trace(first.TraceID()); spans != nil {
		t.Error("oldest trace should have been evicted")
	}
}

func TestSpanTruncationCounted(t *testing.T) {
	rec := NewRecorder()
	root := rec.Span("root")
	for i := 0; i < maxSpansPerTrace+10; i++ {
		root.Child("leaf").End()
	}
	if got := rec.Counter("asiccloud_spans_truncated_total").Value(); got < 10 {
		t.Errorf("truncated counter = %d, want >= 10 (drops must not be silent)", got)
	}
}

// TestTruncationCountsOnlyDroppedSpans: many small traces lose no span,
// so the counter stays 0. Before, every span also went into a flat set
// of the first 4096 spans, and each span past it was counted although
// its trace kept it; this load read 904.
func TestTruncationCountsOnlyDroppedSpans(t *testing.T) {
	rec := NewRecorder()
	var ids []TraceID
	for i := 0; i < 50; i++ {
		root := rec.Span("job")
		for j := 0; j < 99; j++ {
			root.Child("chunk").End()
		}
		root.End()
		ids = append(ids, root.TraceID())
	}
	if got := rec.Counter("asiccloud_spans_truncated_total").Value(); got != 0 {
		t.Errorf("truncated counter = %d, want 0: no trace lost a span", got)
	}
	for _, id := range ids {
		if spans, truncated := rec.Trace(id); len(spans) != 100 || truncated != 0 {
			t.Fatalf("trace %s kept %d spans (%d truncated), want all 100", id, len(spans), truncated)
		}
	}
}

// TestCLIViewsReadTheTraceStore pins the order Slowest and TraceTree
// read: traces in creation order, each trace's spans in start order,
// finished spans only.
func TestCLIViewsReadTheTraceStore(t *testing.T) {
	rec := NewRecorder()
	a := rec.Span("a")
	a.Child("a1").End()
	a.Child("open") // never ended: not shown
	b := rec.Span("b")
	b.Child("b1").End()
	a.Child("a2").End()
	a.End()
	b.End()

	var names []string
	for _, line := range strings.Split(strings.TrimSpace(rec.TraceTree()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if got, want := strings.Join(names, " "), "a a1 a2 b b1"; got != want {
		t.Errorf("TraceTree order = %q, want %q", got, want)
	}
	if got := len(rec.Slowest(10)); got != 5 {
		t.Errorf("Slowest(10) returned %d spans, want the 5 finished ones", got)
	}
}

func TestLoggerTraceCorrelation(t *testing.T) {
	var buf bytes.Buffer
	logger := NewLogger(&buf, slog.LevelInfo)
	rec := NewRecorder()
	ctx, span := rec.StartSpan(context.Background(), "request")
	logger.InfoContext(ctx, "hello", "job_id", "s000001")
	span.End()

	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("log line is not JSON: %v (%q)", err, buf.String())
	}
	if line["trace_id"] != span.TraceID().String() {
		t.Errorf("trace_id = %v, want %s", line["trace_id"], span.TraceID())
	}
	if line["span_id"] != span.Context().SpanID.String() {
		t.Errorf("span_id = %v, want %s", line["span_id"], span.Context().SpanID)
	}
	if line["job_id"] != "s000001" || line["msg"] != "hello" {
		t.Errorf("attrs lost: %v", line)
	}

	// Debug is filtered at LevelInfo; WithAttrs keeps the correlation.
	buf.Reset()
	logger.DebugContext(ctx, "invisible")
	if buf.Len() != 0 {
		t.Error("debug line passed an info-level logger")
	}
	logger.With("component", "test").InfoContext(ctx, "still correlated")
	if !strings.Contains(buf.String(), `"trace_id"`) {
		t.Error("WithAttrs dropped the trace correlation")
	}

	// NopLogger and OrNop never panic and write nothing.
	NopLogger().InfoContext(ctx, "dropped")
	OrNop(nil).InfoContext(ctx, "dropped")
}

func TestRuntimeMetricsCollect(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntimeMetrics(reg)
	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"asiccloud_go_goroutines",
		"asiccloud_go_heap_alloc_bytes",
		"asiccloud_go_gc_runs_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("runtime exposition missing %s", want)
		}
	}
	if reg.Gauge("asiccloud_go_goroutines").Value() < 1 {
		t.Error("goroutine gauge not refreshed at scrape time")
	}
	// Nil registry is a no-op.
	RegisterRuntimeMetrics(nil)
}

// TestParseTraceparentW3CRules pins the W3C Trace Context rules the
// parser enforces on untrusted headers.
func TestParseTraceparentW3CRules(t *testing.T) {
	const (
		trace = "000102030405060708090a0b0c0d0e0f"
		span  = "0011223344556677"
	)
	for _, tc := range []struct {
		name, h string
		ok      bool
	}{
		{"version 00", "00-" + trace + "-" + span + "-01", true},
		{"unsampled", "00-" + trace + "-" + span + "-00", true},
		{"upper-case hex", "00-" + strings.ToUpper(trace) + "-" + span + "-0A", true},
		{"surrounding space", " 00-" + trace + "-" + span + "-01\t", true},
		{"future version", "01-" + trace + "-" + span + "-01", true},
		{"future version, trailing fields", "cc-" + trace + "-" + span + "-01-what-ever", true},
		{"non-hex version", "zz-" + trace + "-" + span + "-01", false},
		{"non-hex flags", "00-" + trace + "-" + span + "-zz", false},
		{"non-hex version and flags", "zz-" + trace + "-" + span + "-zz", false},
		{"version ff", "ff-" + trace + "-" + span + "-01", false},
		{"version FF", "FF-" + trace + "-" + span + "-01", false},
		{"empty flags", "00-" + trace + "-" + span + "-", false},
		{"4-character flags", "00-" + trace + "-" + span + "-0101", false},
		{"1-character version", "0-" + trace + "-" + span + "-01", false},
		{"version 00, trailing field", "00-" + trace + "-" + span + "-01-extra", false},
		{"version 00, trailing dash", "00-" + trace + "-" + span + "-01-", false},
		{"three fields", "00-" + trace + "-" + span, false},
	} {
		sc, ok := ParseTraceparent(tc.h)
		if ok != tc.ok {
			t.Errorf("%s: ParseTraceparent(%q) ok = %v, want %v", tc.name, tc.h, ok, tc.ok)
			continue
		}
		if ok && (sc.TraceID.String() != trace || sc.SpanID.String() != span) {
			t.Errorf("%s: ParseTraceparent(%q) = %v/%v", tc.name, tc.h, sc.TraceID, sc.SpanID)
		}
	}
}

// FuzzParseTraceparent feeds the parser arbitrary header values: it
// must never panic, and anything it accepts must be a valid span
// context that survives a round trip through its own rendering.
func FuzzParseTraceparent(f *testing.F) {
	f.Fuzz(func(t *testing.T, h string) {
		sc, ok := ParseTraceparent(h)
		if !ok {
			if sc != (SpanContext{}) {
				t.Fatalf("ParseTraceparent(%q) rejected the value but returned %+v", h, sc)
			}
			return
		}
		if !sc.Valid() {
			t.Fatalf("ParseTraceparent(%q) accepted an invalid span context %+v", h, sc)
		}
		back, ok := ParseTraceparent(sc.Traceparent())
		if !ok || back != sc {
			t.Fatalf("ParseTraceparent(%q) = %+v, which does not round-trip through %q (got %+v, %v)",
				h, sc, sc.Traceparent(), back, ok)
		}
	})
}
