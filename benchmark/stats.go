package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p ≤ 1) of sorted by the
// nearest-rank rule, and whether at least ten samples lie beyond it: a
// percentile with fewer is one slow outlier's value, not a property of the
// distribution.
func percentile(sorted []float64, p float64) (v float64, supported bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= 10
}

// median sorts vs in place.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	sort.Float64s(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

func maxOf(vs []float64) float64 {
	m := 0.0
	for _, v := range vs {
		m = math.Max(m, v)
	}
	return m
}

// perOr is a/b, or 0 when nothing was counted.
func perOr(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
