package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of xs by nearest rank:
// the smallest value with at least p% of the samples at or below it. It
// returns 0 for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1]
}

// median returns the middle value of xs (mean of the middle two for an even
// count), 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) (the default, exclusive method) computes
// them, so a spread printed here is the one the acceptance driver derives
// from the same values. With three values they are the minimum and maximum.
// It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance of xs as a share of its median: the
// run-to-run (or window-to-window) noise figure every bound is compared
// against. Fewer than two values, or a zero median, have no spread.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// windowOf returns the index i with bounds[i] ≤ t < bounds[i+1], or -1 when t
// falls outside every window (warm-up, or after the last boundary).
func windowOf(t time.Time, bounds []time.Time) int {
	for i := 0; i+1 < len(bounds); i++ {
		if !t.Before(bounds[i]) && t.Before(bounds[i+1]) {
			return i
		}
	}
	return -1
}
