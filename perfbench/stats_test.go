package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so summarize must sort
	}
	return xs
}

func TestSummarizeMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{4, 1}, 2.5},
		{[]float64{5, 1, 3}, 3},
		{seq(10), 5.5},
	} {
		if got := summarize(tc.xs); got.median != tc.want || got.n != len(tc.xs) {
			t.Errorf("summarize(%v) = median %v n %d, want %v n %d", tc.xs, got.median, got.n, tc.want, len(tc.xs))
		}
	}
	if got := summarize(nil); got.n != 0 || got.hasP90 {
		t.Errorf("summarize(nil) = %+v, want zero", got)
	}
}

func TestSummarizeP90NeedsTenBeyond(t *testing.T) {
	// With n samples the nearest-rank p90 leaves n - ceil(0.9n) beyond it:
	// 9 at n=99, 10 at n=100.
	if s := summarize(seq(99)); s.hasP90 {
		t.Fatalf("n=99 reported p90 %v; only 9 samples lie beyond it", s.p90)
	}
	s := summarize(seq(100))
	if !s.hasP90 || s.p90 != 90 {
		t.Fatalf("n=100: p90 = %v (has %v), want 90", s.p90, s.hasP90)
	}
	s = summarize(seq(1000))
	if !s.hasP90 || s.p90 != 900 {
		t.Fatalf("n=1000: p90 = %v (has %v), want 900", s.p90, s.hasP90)
	}
}

func TestSummarizeLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("summarize reordered its input: %v", xs)
	}
}
