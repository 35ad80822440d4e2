package main

import (
	"math/rand"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(int64(n))).Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return xs
}

func TestSummarizeTailRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p50    float64
		tailAt float64
		tail   float64
		thin   bool
	}{
		{n: 10000, p50: 5000, tailAt: 0.999, tail: 9990},
		{n: 1000, p50: 500, tailAt: 0.99, tail: 990},
		{n: 999, p50: 500, tailAt: 0.9, tail: 900}, // p99 would leave 9 beyond
		{n: 100, p50: 50, tailAt: 0.9, tail: 90},
		{n: 99, p50: 50, tailAt: 0.5, tail: 50}, // p90 would leave 9 beyond
		{n: 20, p50: 10, tailAt: 0.5, tail: 10},
		{n: 19, p50: 10, tailAt: 0.5, tail: 10, thin: true},
		{n: 1, p50: 1, tailAt: 0.5, tail: 1, thin: true},
	} {
		s := summarize(seq(tc.n))
		if s.N != tc.n || s.P50 != tc.p50 || s.TailAt != tc.tailAt || s.Tail != tc.tail || s.Thin != tc.thin {
			t.Errorf("n=%d: got %+v, want n=%d p50=%g tail p%g=%g thin=%t", tc.n, s, tc.n, tc.p50, tc.tailAt*100, tc.tail, tc.thin)
		}
		if !s.Thin && beyond(s.N, s.TailAt) < minBeyond {
			t.Errorf("n=%d: tail p%g has %d samples beyond it", tc.n, s.TailAt*100, beyond(s.N, s.TailAt))
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}
