package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// samples is a list of measurements of one quantity, in seconds or
// in whatever unit the metric that reads it states.
type samples []float64

func (s *samples) addDur(d time.Duration) { *s = append(*s, d.Seconds()) }

func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile is the q-quantile (0..1) by linear interpolation between
// closest ranks, the estimate Python's statistics.quantiles calls
// "inclusive". It is NaN for an empty list.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := s.sorted()
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

func (s samples) sum() float64 {
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum
}

// percentileLadder lists the percentiles a tail is reported at, in
// tenths of a percent, ascending.
var percentileLadder = []int{500, 750, 900, 950, 990, 999}

// tailPercentile returns the highest percentile of percentileLadder
// that has at least ten of n samples beyond it, so a reported tail is
// never set by a handful of outliers. ok is false when even the median
// has fewer than ten samples beyond it (n < 20).
func tailPercentile(n int) (p float64, ok bool) {
	for i := len(percentileLadder) - 1; i >= 0; i-- {
		if tenths := percentileLadder[i]; n*(1000-tenths)/1000 >= 10 {
			return float64(tenths) / 10, true
		}
	}
	return 0, false
}

// cpuTime is the CPU time the process has used, user plus system,
// over all its threads. Time the hypervisor steals from the machine
// is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
