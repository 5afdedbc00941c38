package main

import "sort"

// summary is a timing summary under the percentile rule: the median is
// always reported, the 90th percentile only when at least ten samples lie
// beyond it, and the sample count travels with both.
type summary struct {
	n      int
	median float64
	p90    float64
	hasP90 bool
}

// summarize computes the median (mean of the middle pair for even n) and
// the nearest-rank 90th percentile of xs. It does not modify xs.
func summarize(xs []float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{n: n, median: s[n/2]}
	if n%2 == 0 {
		out.median = (s[n/2-1] + s[n/2]) / 2
	}
	rank := (9*n + 9) / 10 // ceil(0.9 n), in integers to avoid rounding
	if n-rank >= 10 {
		out.p90 = s[rank-1]
		out.hasP90 = true
	}
	return out
}

// median is summarize(xs).median.
func median(xs []float64) float64 { return summarize(xs).median }
