package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sort"
	"strings"
	"sync"
	"time"
)

// TraceID identifies one end-to-end trace (W3C Trace Context format:
// 16 bytes, rendered as 32 lowercase hex digits). Every span created
// under one request shares its trace ID, across process boundaries via
// the traceparent header.
type TraceID [16]byte

// SpanID identifies one span within a trace (8 bytes, 16 hex digits).
type SpanID [8]byte

// NewTraceID returns a cryptographically random, non-zero trace ID.
func NewTraceID() TraceID {
	var id TraceID
	mustRand(id[:])
	return id
}

// NewSpanID returns a cryptographically random, non-zero span ID.
func NewSpanID() SpanID {
	var id SpanID
	mustRand(id[:])
	return id
}

// mustRand fills b with random bytes; crypto/rand.Read is documented
// never to fail on supported platforms, so a failure is unrecoverable.
func mustRand(b []byte) {
	if _, err := rand.Read(b); err != nil {
		panic("obs: crypto/rand failed: " + err.Error())
	}
	// An all-zero ID means "absent" in W3C trace context; the chance is
	// negligible but the spec forbids emitting it, so nudge one byte.
	allZero := true
	for _, c := range b {
		if c != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		b[0] = 1
	}
}

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports whether the trace ID is the absent value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether the span ID is the absent value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// SpanContext is the propagatable identity of a span: enough to parent
// remote or deferred work without holding the *Span itself. The zero
// value is "no span".
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether the context names a real span.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Traceparent renders the W3C traceparent header value,
// version 00 with the sampled flag set. Invalid contexts render "".
func (sc SpanContext) Traceparent() string {
	if !sc.Valid() {
		return ""
	}
	return "00-" + sc.TraceID.String() + "-" + sc.SpanID.String() + "-01"
}

// ParseTraceparent parses a W3C traceparent header value,
// "<2 hex version>-<32 hex trace ID>-<16 hex span ID>-<2 hex flags>",
// as W3C Trace Context reads it: version ff is invalid, version 00 has
// exactly these four fields, and a later version may append further
// "-"-separated fields, which are ignored while its first four parse as
// version 00's. All-zero trace or span IDs are rejected. Hex digits may
// be of either case. The header comes from untrusted clients, so
// anything else is rejected rather than guessed at.
func ParseTraceparent(h string) (SpanContext, bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) < 4 || !isHexByte(parts[0]) || !isHexByte(parts[3]) ||
		len(parts[1]) != 32 || len(parts[2]) != 16 {
		return SpanContext{}, false
	}
	switch strings.ToLower(parts[0]) {
	case "ff":
		return SpanContext{}, false
	case "00":
		if len(parts) != 4 {
			return SpanContext{}, false
		}
	}
	var sc SpanContext
	if _, err := hex.Decode(sc.TraceID[:], []byte(parts[1])); err != nil {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(parts[2])); err != nil {
		return SpanContext{}, false
	}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

// isHexByte reports whether s is exactly two hex digits.
func isHexByte(s string) bool {
	if len(s) != 2 {
		return false
	}
	var b [1]byte
	_, err := hex.Decode(b[:], []byte(s))
	return err == nil
}

// ctxKey keys the span slot in a context.Context.
type ctxKey struct{}

// ctxVal is what WithSpan/WithSpanContext store: the local span when
// there is one, or just the propagated identity for remote parents.
type ctxVal struct {
	span *Span
	sc   SpanContext
}

// WithSpan returns a context carrying the span, so downstream
// StartSpan calls parent under it and slog records correlate to it.
// A nil span returns ctx unchanged.
func WithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, ctxVal{span: s, sc: s.Context()})
}

// WithSpanContext returns a context carrying a remote or deferred
// parent identity (e.g. extracted from a traceparent header) without a
// local span. Invalid contexts return ctx unchanged.
func WithSpanContext(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, ctxVal{sc: sc})
}

// FromContext returns the span stored by WithSpan, or nil. All *Span
// methods are nil-safe, so callers need not check.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	v, _ := ctx.Value(ctxKey{}).(ctxVal)
	return v.span
}

// SpanContextFromContext returns the propagatable span identity in
// ctx — from a local span or a remote parent — and whether one exists.
func SpanContextFromContext(ctx context.Context) (SpanContext, bool) {
	if ctx == nil {
		return SpanContext{}, false
	}
	v, _ := ctx.Value(ctxKey{}).(ctxVal)
	return v.sc, v.sc.Valid()
}

// StartSpan starts a span as a child of whatever parent ctx carries —
// a local span (path nesting continues), a remote SpanContext (the new
// span roots the local subtree but keeps the remote trace ID), or
// nothing (a fresh trace begins). It returns ctx with the new span
// installed. Nil-safe: a nil recorder returns ctx unchanged and a nil
// span.
func (r *Recorder) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if r == nil {
		return ctx, nil
	}
	var s *Span
	if parent := FromContext(ctx); parent != nil {
		s = parent.Child(name)
	} else if sc, ok := SpanContextFromContext(ctx); ok {
		s = r.startSpan(name, name, 0, SpanContext{TraceID: sc.TraceID, SpanID: NewSpanID()}, sc.SpanID)
	} else {
		s = r.Span(name)
	}
	return WithSpan(ctx, s), s
}

// SpanInfo is the report/JSON form of one span, as served by trace
// endpoints.
type SpanInfo struct {
	TraceID      string  `json:"trace_id"`
	SpanID       string  `json:"span_id"`
	ParentSpanID string  `json:"parent_span_id,omitempty"`
	Name         string  `json:"name"`
	Path         string  `json:"path"`
	Start        string  `json:"start"` // RFC 3339 with nanoseconds, UTC
	Seconds      float64 `json:"duration_seconds"`
	Ended        bool    `json:"ended"`
}

// SpanNode is one node of a nested span tree.
type SpanNode struct {
	SpanInfo
	Children []*SpanNode `json:"children,omitempty"`
}

// BuildSpanTree nests spans by parent link, preserving start order
// among siblings. Spans whose parent is absent (e.g. a remote parent
// that lives in another process) become roots.
//
//asic:canonical
func BuildSpanTree(spans []SpanInfo) []*SpanNode {
	nodes := make(map[string]*SpanNode, len(spans))
	order := make([]*SpanNode, 0, len(spans))
	for _, si := range spans {
		n := &SpanNode{SpanInfo: si}
		nodes[si.SpanID] = n
		order = append(order, n)
	}
	var roots []*SpanNode
	for _, n := range order {
		if p, ok := nodes[n.ParentSpanID]; ok && n.ParentSpanID != n.SpanID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots
}

// maxTraces bounds how many distinct traces the recorder retains for
// the per-trace endpoint; beyond it the oldest trace is evicted whole.
// Sized to comfortably cover the daemon's 128-entry result cache.
const maxTraces = 256

// maxSpansPerTrace bounds one trace's span list, so a pathological
// sweep cannot hold the recorder's memory hostage. Overflow is counted
// in the asiccloud_spans_truncated_total metric.
const maxSpansPerTrace = 4096

// traceStore groups spans by trace ID with whole-trace LRU-by-creation
// eviction. It is the recorder's one span store: the daemon's trace
// endpoint reads one trace (get), the CLI report every trace
// (finished).
type traceStore struct {
	mu     sync.Mutex
	traces map[TraceID]*traceEntry
	order  []TraceID // creation order, oldest first
}

type traceEntry struct {
	spans     []*Span
	truncated int
}

// add files a span under its trace; it reports whether the span was
// dropped to the per-trace bound.
func (ts *traceStore) add(s *Span) bool {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.traces == nil {
		ts.traces = make(map[TraceID]*traceEntry)
	}
	e, ok := ts.traces[s.sc.TraceID]
	if !ok {
		if len(ts.order) >= maxTraces {
			oldest := ts.order[0]
			ts.order = ts.order[1:]
			delete(ts.traces, oldest)
		}
		e = &traceEntry{}
		ts.traces[s.sc.TraceID] = e
		ts.order = append(ts.order, s.sc.TraceID)
	}
	if len(e.spans) >= maxSpansPerTrace {
		e.truncated++
		return true
	}
	e.spans = append(e.spans, s)
	return false
}

// get returns the trace's spans (in start order) and how many were
// dropped to the per-trace bound.
func (ts *traceStore) get(id TraceID) ([]*Span, int) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	e, ok := ts.traces[id]
	if !ok {
		return nil, 0
	}
	return append([]*Span(nil), e.spans...), e.truncated
}

// finished returns the ended spans of every retained trace: traces in
// creation order, each trace's spans in start order.
func (ts *traceStore) finished() []*Span {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	var out []*Span
	for _, id := range ts.order {
		for _, s := range ts.traces[id].spans {
			s.mu.Lock()
			ended := s.ended
			s.mu.Unlock()
			if ended {
				out = append(out, s)
			}
		}
	}
	return out
}

// Trace returns every retained span of a trace (ended or still open)
// in start order, ready for JSON rendering. The second result counts
// spans dropped to the per-trace retention bound.
func (r *Recorder) Trace(id TraceID) ([]SpanInfo, int) {
	if r == nil || id.IsZero() {
		return nil, 0
	}
	spans, truncated := r.traces.get(id)
	if len(spans) == 0 {
		return nil, truncated
	}
	out := make([]SpanInfo, 0, len(spans))
	for _, s := range spans {
		out = append(out, s.Info())
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out, truncated
}

// Info snapshots the span for JSON rendering. Nil-safe.
func (s *Span) Info() SpanInfo {
	if s == nil {
		return SpanInfo{}
	}
	s.mu.Lock()
	ended, dur := s.ended, s.dur
	s.mu.Unlock()
	if !ended {
		dur = time.Since(s.start)
	}
	si := SpanInfo{
		TraceID: s.sc.TraceID.String(),
		SpanID:  s.sc.SpanID.String(),
		Name:    s.name,
		Path:    s.path,
		Start:   s.start.UTC().Format(time.RFC3339Nano),
		Seconds: dur.Seconds(),
		Ended:   ended,
	}
	if !s.parent.IsZero() {
		si.ParentSpanID = s.parent.String()
	}
	return si
}
