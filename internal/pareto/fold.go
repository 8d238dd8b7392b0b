package pareto

import (
	"math"
	"sort"
)

// Fold is a bounded-memory streaming accumulator for the two-objective
// Pareto frontier: points are folded in one at a time, dominated points
// are discarded immediately, and only the current non-dominated set is
// retained. Memory is O(frontier size) instead of O(points evaluated),
// which is what lets an explorer drop full point retention for
// frontier-only callers.
//
// The retained set is order-independent: folding the same multiset of
// points in any order — or folding worker-local Folds into one with
// Merge — yields the same set, because Pareto-maximality is a property
// of the set, not of arrival order. Exact duplicates of retained points
// are kept (dominance requires strict improvement somewhere), so
// downstream tie-breaking over the survivors sees the same candidates a
// full sort of all points would.
//
// Points with a NaN objective are ignored on Add, matching Frontier's
// NaN filtering.
//
// A Fold is not safe for concurrent use; give each worker its own and
// Merge under a lock.
type Fold[T any] struct {
	x, y func(T) float64
	// pts is sorted by (x asc, y asc). Across distinct retained points y
	// is strictly decreasing as x increases (the Pareto staircase); the
	// only coincident entries are exact coordinate duplicates.
	pts []foldEntry[T]
}

// foldEntry is one survivor beside its coordinates, so the search and
// the dominance tests read stored floats instead of re-running the
// objective functions on (possibly large) point values.
type foldEntry[T any] struct {
	x, y float64
	p    T
}

// NewFold returns an empty fold over the two objective functions.
func NewFold[T any](x, y func(T) float64) *Fold[T] {
	return &Fold[T]{x: x, y: y}
}

// Len is the number of retained (non-dominated) points.
func (f *Fold[T]) Len() int { return len(f.pts) }

// Add folds one point in: a no-op if p is dominated by (or has a NaN
// objective alongside) the retained set, otherwise p is inserted and
// every retained point p dominates is dropped. Memory use is bounded by
// the frontier, not by how many points flow through. Each objective
// function runs once per Add; callers that already hold the
// coordinates, or whose T is too large to pass by value, use AddAt.
func (f *Fold[T]) Add(p T) {
	f.AddAt(f.x(p), f.y(p), &p)
}

// AddAt is Add for a point whose coordinates the caller computed: *p is
// folded in at (px, py), which must equal the fold's objective
// functions applied to it. The objective functions do not run, and *p is copied
// into the fold only when it survives. The sweep engine calls AddAt
// once per feasible configuration, so it is allocation-sensitive.
//
//asic:hotpath
func (f *Fold[T]) AddAt(px, py float64, p *T) {
	if math.IsNaN(px) || math.IsNaN(py) {
		return
	}
	// First retained index at or after p in (x asc, y asc) order.
	//lint:ignore hotalloc the closure only captures stack locals and f, so escape analysis keeps it off the heap
	pos := sort.Search(len(f.pts), func(i int) bool {
		e := &f.pts[i]
		//lint:ignore floatcmp the staircase invariant needs an exact lexicographic order over coordinates
		if e.x != px {
			return e.x > px
		}
		return e.y >= py
	})
	// Only the nearest retained point to the left can dominate p: every
	// point further left has larger-or-equal y by the staircase
	// invariant, so it dominates p only if that neighbor does too.
	if pos > 0 {
		if q := &f.pts[pos-1]; Dominates(q.x, q.y, px, py) {
			return
		}
	}
	// Points p dominates form a contiguous run at pos: they have x >= px
	// and, until y drops below py, y >= py. Exact duplicates terminate
	// the run immediately (neither point dominates the other).
	end := pos
	for end < len(f.pts) && Dominates(px, py, f.pts[end].x, f.pts[end].y) {
		end++
	}
	if end > pos {
		f.pts[pos] = foldEntry[T]{x: px, y: py, p: *p}
		//lint:ignore hotalloc shifts within capacity; growth is bounded by the frontier size, not the point count
		f.pts = append(f.pts[:pos+1], f.pts[end:]...)
		return
	}
	//lint:ignore hotalloc growth is bounded by the frontier size, not the point count
	f.pts = append(f.pts, foldEntry[T]{})
	copy(f.pts[pos+1:], f.pts[pos:])
	f.pts[pos] = foldEntry[T]{x: px, y: py, p: *p}
}

// Merge folds every point retained by o into f, reusing o's stored
// coordinates. o is not modified.
func (f *Fold[T]) Merge(o *Fold[T]) {
	for i := range o.pts {
		e := &o.pts[i]
		f.AddAt(e.x, e.y, &e.p)
	}
}

// Points returns a copy of the retained set in (x asc, y asc) order.
// Run Frontier over it to apply the standard duplicate tie-breaking;
// the result is identical to Frontier over every point ever Added.
func (f *Fold[T]) Points() []T {
	if len(f.pts) == 0 {
		return nil
	}
	out := make([]T, len(f.pts))
	for i := range f.pts {
		out[i] = f.pts[i].p
	}
	return out
}
