package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs: the smallest
// element x such that at least ceil(q*n) observations are <= x, the
// definition internal/stats.Quantile documents. It is kept here, apart
// from the program, so that work on the program's quantile code cannot
// move the benchmark's numbers. An empty slice returns NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the nearest-rank 0.5-quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }
