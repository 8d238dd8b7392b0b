package pareto

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestCompareNaN(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		a, b float64
		want int
	}{
		{1, 2, -1}, {2, 1, 1}, {1, 1, 0},
		{nan, 1, 1}, {1, nan, -1}, {nan, nan, 0},
		{math.Inf(1), nan, -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDominatesNaN(t *testing.T) {
	nan := math.NaN()
	if Dominates(nan, 0, 1, 1) {
		t.Error("a NaN coordinate must never dominate")
	}
	if Dominates(nan, nan, 1, 1) {
		t.Error("an all-NaN point must never dominate")
	}
	if !Dominates(1, 1, nan, 1) {
		t.Error("a real point should dominate a NaN-x point no better elsewhere")
	}
	if !Dominates(1, 1, nan, nan) {
		t.Error("a real point should dominate an all-NaN point")
	}
}

func TestArgMinNaN(t *testing.T) {
	nan := math.NaN()
	vals := []float64{nan, 3, 1, nan, 2}
	if got := ArgMin(vals, func(v float64) float64 { return v }); got != 2 {
		t.Fatalf("ArgMin = %d, want 2 (a leading NaN must not win)", got)
	}
	if got := ArgMin([]float64{nan, nan}, func(v float64) float64 { return v }); got != -1 {
		t.Fatalf("all-NaN ArgMin = %d, want -1", got)
	}
	if got := ArgMin(nil, func(v float64) float64 { return v }); got != -1 {
		t.Fatalf("empty ArgMin = %d, want -1", got)
	}
}

func TestFrontierFiltersNaN(t *testing.T) {
	nan := math.NaN()
	pts := []pt{{nan, 0}, {1, 2}, {0, nan}, {2, 1}}
	fr := Frontier(pts, xs, ys)
	if !reflect.DeepEqual(fr, []int{1, 3}) {
		t.Fatalf("Frontier = %v, want [1 3]", fr)
	}
	if fr := Frontier([]pt{{nan, nan}}, xs, ys); len(fr) != 0 {
		t.Fatalf("all-NaN Frontier = %v, want empty", fr)
	}
}

// frontierSet runs Frontier and returns the selected points.
func frontierSet(pts []pt) []pt {
	return Select(pts, Frontier(pts, xs, ys))
}

// randomPoints draws a deterministic cloud with the cases a streaming
// fold can get wrong: exact duplicates, runs of points sharing x or
// sharing y, signed zeros, infinities and occasional NaN.
func randomPoints(rng *rand.Rand, n int) []pt {
	special := []float64{math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0, math.NaN()}
	coord := func() float64 { return float64(rng.Intn(20)) }
	pts := make([]pt, 0, n)
	for i := 0; i < n; i++ {
		p := pt{coord(), coord()}
		switch rng.Intn(12) {
		case 0:
			p.x = math.NaN()
		case 1:
			pts = append(pts, p) // exact duplicate
		case 2:
			p.x = special[rng.Intn(len(special))]
		case 3:
			p.y = special[rng.Intn(len(special))]
		case 4:
			for k := 1 + rng.Intn(4); k > 0; k-- {
				pts = append(pts, pt{p.x, coord()}) // equal-x run
			}
		case 5:
			for k := 1 + rng.Intn(4); k > 0; k-- {
				pts = append(pts, pt{coord(), p.y}) // equal-y run
			}
		}
		pts = append(pts, p)
	}
	return pts
}

func TestFoldMatchesFrontier(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		pts := randomPoints(rng, 1+rng.Intn(60))
		f := NewFold(xs, ys)
		for _, p := range pts {
			f.Add(p)
		}
		got := frontierSet(f.Points())
		want := frontierSet(pts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: fold frontier %v != direct frontier %v (points %v)",
				trial, got, want, pts)
		}
	}
}

func TestFoldMergeMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		pts := randomPoints(rng, 1+rng.Intn(60))
		single := NewFold(xs, ys)
		parts := []*Fold[pt]{NewFold(xs, ys), NewFold(xs, ys), NewFold(xs, ys)}
		for i, p := range pts {
			single.Add(p)
			parts[i%len(parts)].Add(p)
		}
		// The survivors, exact duplicates included, are a property of
		// the point multiset, and Points lists them in (x asc, y asc)
		// order, so the merged fold must list exactly what the single
		// one does.
		want := single.Points()
		for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}} {
			merged := NewFold(xs, ys)
			for _, i := range order {
				merged.Merge(parts[i])
			}
			if got := merged.Points(); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, merge order %v: merged survivors %v != single-fold survivors %v",
					trial, order, got, want)
			}
		}
	}
}

// Select returns the elements of pts at the given indices.
func Select[T any](pts []T, idx []int) []T {
	out := make([]T, 0, len(idx))
	for _, i := range idx {
		out = append(out, pts[i])
	}
	return out
}
