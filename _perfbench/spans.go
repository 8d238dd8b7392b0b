package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"asiccloud/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call (or copied from the spans the program publishes).
// All spans of one request share Req; Parent is -1 for a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory for the length of a run. A nil *tracer
// records nothing, which is how the untraced runs call the same code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(req, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record files a finished span whose times were taken elsewhere (a
// span the program published) and returns its ID.
func (t *tracer) record(req, parent int, name string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return len(t.spans) - 1
}

// setParent links a recorded span to its parent.
func (t *tracer) setParent(id, parent int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Parent = parent
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part
// of its interval that its children cover. Children that overlap (the
// parallel chunks of one sweep) are counted once.
func (t *tracer) selfTimes() map[string]time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	curStart, curEnd := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi <= lo {
			continue
		}
		if lo > curEnd {
			if curEnd > curStart {
				total += curEnd - curStart
			}
			curStart, curEnd = lo, hi
			continue
		}
		curEnd = max(curEnd, hi)
	}
	if curEnd > curStart {
		total += curEnd - curStart
	}
	return total
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// total sums the durations of the spans with the given name.
func (t *tracer) total(name string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			d += s.dur()
		}
	}
	return d
}

// importTrace copies the spans the program's recorder holds for one
// request into the benchmark's tracer, under a root for the request,
// and returns the summed duration per span name.
func importTrace(tr *tracer, req int, rec *obs.Recorder, root *obs.Span) map[string]time.Duration {
	spans, _ := rec.Trace(root.TraceID())
	return importSpans(tr, req, spans)
}

// importSpans files program spans (as the trace endpoint serves them)
// in the tracer, keeping their parent links, and sums their durations
// by name.
func importSpans(tr *tracer, req int, spans []obs.SpanInfo) map[string]time.Duration {
	ids := make(map[string]int, len(spans))
	out := make(map[string]time.Duration)
	for _, s := range spans {
		start, err := time.Parse(time.RFC3339Nano, s.Start)
		if err != nil {
			continue
		}
		d := time.Duration(s.Seconds * float64(time.Second))
		ids[s.SpanID] = tr.record(req, -1, "program."+s.Name, start, start.Add(d))
		out[s.Name] += d
	}
	for _, s := range spans {
		if id, ok := ids[s.SpanID]; ok {
			if parent, ok := ids[s.ParentSpanID]; ok {
				tr.setParent(id, parent)
			}
		}
	}
	return out
}
