package main

import (
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.ok)
		}
	}
}

func TestQuantileInterpolatesBetweenRanks(t *testing.T) {
	s := samples{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.9, 3.7}, {1, 4},
	} {
		if got := s.quantile(c.q); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.record(0, -1, "root", at(0), at(10))
	// Two overlapping children cover 2..8 ms once, not 3+4 ms.
	tr.record(0, root, "kid", at(2), at(5))
	tr.record(0, root, "kid", at(4), at(8))
	self := tr.selfTimes()
	if self["root"] != 4*time.Millisecond {
		t.Errorf("root self time %v, want 4ms", self["root"])
	}
	if self["kid"] != 7*time.Millisecond {
		t.Errorf("kid self time %v, want 7ms", self["kid"])
	}
}
