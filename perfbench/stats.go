package main

import (
	"math"
	"slices"
)

// roundQuantile returns the q-quantile of latencies counted in whole
// rounds, reading each count r as a time spread uniformly over [r, r+1):
// the event happened some time during that round. Unlike the quantile
// of the raw integers this moves smoothly as the distribution shifts,
// and it is never 0 for a non-empty sample. It returns 0 when xs is
// empty.
func roundQuantile(xs []int, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	target := q * float64(len(s))
	for i := 0; i < len(s); {
		j := i
		for j < len(s) && s[j] == s[i] {
			j++
		}
		if float64(j) > target {
			return float64(s[i]) + (target-float64(i))/float64(j-i)
		}
		i = j
	}
	return float64(s[len(s)-1] + 1)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "type 7" estimator); 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }
