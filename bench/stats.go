package main

import (
	"math"
	"sort"

	"tetriserve/internal/stats"
)

// percentile returns the want-th percentile of xs, lowered to the highest
// percentile that still has at least ten samples beyond it (never below the
// median), together with the percentile actually used. Empty input yields 0.
func percentile(xs []float64, want float64) (value, used float64) {
	if len(xs) == 0 {
		return 0, want
	}
	used = math.Max(50, math.Min(want, 100*(1-10/float64(len(xs)))))
	return stats.Percentile(xs, used), used
}

func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// quartiles mirrors Python's statistics.quantiles(xs, n=4), which the
// acceptance procedure uses for run-to-run spread. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs) // q2 is the median
	return ratio(q3-q1, math.Abs(q2))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
