package main

import (
	"slices"
)

// percentile returns the q-quantile (0..1) of sorted by nearest rank.
func percentile[T int64 | uint32 | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailQuantile is the rule every tail in this benchmark follows: the
// highest of p50/p90/p99/p99.9 that still has at least ten samples beyond
// it, capped at want.
func tailQuantile(n int, want float64) float64 {
	q := 0.5
	for _, c := range []float64{0.9, 0.99, 0.999} {
		if c <= want && float64(n)*(1-c) >= 10 {
			q = c
		}
	}
	return q
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}
