package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by the
// nearest-rank rule on a sorted copy: the smallest sample with at least
// p% of the samples at or below it. Empty input gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the mean of the two middle samples for even counts, so a
// two-sample median does not collapse onto the smaller one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// mixedMedian is the typical cost of an op that comes in two kinds with a
// fixed mix and well separated costs (insert and delete batches): the two
// medians weighted by the mix, shareA for as. The median of the pooled
// samples would sit at the edge between the two modes, where a few samples
// more of one kind move it from one mode's tail to the other's. Where the
// kinds overlap (single Maintainer updates) the pooled median is the
// steadier one: there it is a kind's own median that sits on a cliff.
func mixedMedian(as, bs []float64, shareA float64) float64 {
	return shareA*median(as) + (1-shareA)*median(bs)
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio is a/b with 0 for an empty base, so an unused stage prints 0
// instead of NaN (which JSON cannot carry).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// probeBudget caps how long timeIt keeps repeating one call.
const probeBudget = 500 * time.Millisecond

// timeIt runs fn up to reps times, stopping early once the repetitions
// have used probeBudget, and returns the median wall time. Cheap calls get
// all their repetitions; a search that costs half a second on a hub graph
// gets two.
func timeIt(reps int, fn func()) time.Duration {
	ds := make([]float64, 0, reps)
	var total time.Duration
	for i := 0; i < reps && (i == 0 || total < probeBudget); i++ {
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		total += d
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds))
}
