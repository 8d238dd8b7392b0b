package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed region of work. Spans nest: children created with
// Child carry a slash-separated path ("explore/sweep") and inherit the
// parent's trace ID, forming a tree addressable by SpanContext. A Span
// is created by Recorder.Span, Recorder.StartSpan or Span.Child and
// finished with End; all methods are nil-safe so instrumentation works
// with a nil Recorder.
type Span struct {
	rec    *Recorder
	name   string // last path segment
	path   string
	depth  int
	sc     SpanContext
	parent SpanID // zero for roots
	start  time.Time

	mu    sync.Mutex
	ended bool
	dur   time.Duration
}

// Child starts a nested span sharing the parent's trace ID.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.rec.startSpan(s.path+"/"+name, name, s.depth+1,
		SpanContext{TraceID: s.sc.TraceID, SpanID: NewSpanID()}, s.sc.SpanID)
}

// End finishes the span, recording its wall-clock duration into the
// asiccloud_span_seconds{span=path} histogram (sum and count survive
// repeated spans on the same path — per-chunk spans, warm re-sweeps —
// where the old gauge form silently kept only the last write) and
// incrementing asiccloud_spans_total{span=path}. It returns the
// duration; repeated End calls keep the first.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	if s.ended {
		d := s.dur
		s.mu.Unlock()
		return d
	}
	s.ended = true
	s.dur = time.Since(s.start)
	d := s.dur
	s.mu.Unlock()
	if s.rec != nil {
		s.rec.Histogram("asiccloud_span_seconds", nil, "span", s.path).Observe(d.Seconds())
		s.rec.Counter("asiccloud_spans_total", "span", s.path).Inc()
	}
	return d
}

// Duration returns the span's duration (0 until End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

// Context returns the span's propagatable identity (zero for nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// TraceID returns the span's trace ID (zero for nil).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.sc.TraceID
}

// Traceparent renders the span's W3C traceparent header value, for
// injection into outbound requests ("" for nil).
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	return s.sc.Traceparent()
}

// SpanTiming is the report form of one finished span.
type SpanTiming struct {
	Span    string  `json:"span"`
	Seconds float64 `json:"seconds"`
}

// Slowest returns the n slowest finished spans, descending by duration.
func (r *Recorder) Slowest(n int) []SpanTiming {
	if r == nil || n <= 0 {
		return nil
	}
	spans := r.traces.finished()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Duration() > spans[j].Duration() })
	if len(spans) > n {
		spans = spans[:n]
	}
	out := make([]SpanTiming, len(spans))
	for i, s := range spans {
		out[i] = SpanTiming{Span: s.path, Seconds: s.Duration().Seconds()}
	}
	return out
}

// TraceTree renders the finished spans as an indented tree, trace by
// trace in creation order and each trace's spans in start order, for
// the -trace CLI flag.
func (r *Recorder) TraceTree() string {
	if r == nil {
		return ""
	}
	spans := r.traces.finished()
	var b strings.Builder
	for _, s := range spans {
		name := s.path
		if i := strings.LastIndexByte(name, '/'); i >= 0 {
			name = name[i+1:]
		}
		fmt.Fprintf(&b, "%s%-*s %12.6fs\n",
			strings.Repeat("  ", s.depth), 32-2*s.depth, name, s.Duration().Seconds())
	}
	return b.String()
}
