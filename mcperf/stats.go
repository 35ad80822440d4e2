package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail may be reported at, highest
// first. A tail is the highest of them that leaves at least minBeyond
// samples above it, so a p99 is only claimed from at least 1000 samples.
var tailLadder = []float64{0.999, 0.99, 0.9, 0.5}

// minBeyond is the number of samples that must lie above a reported tail.
const minBeyond = 10

// Summary is one latency distribution reduced to its median and tail.
type Summary struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	Tail   float64 `json:"tail"`
	TailAt float64 `json:"tail_at"` // the percentile the tail was taken at
	// Thin is set when fewer than minBeyond samples lie above even the
	// median; Tail is then the median.
	Thin bool `json:"thin,omitempty"`
}

// percentile returns the nearest-rank p-quantile of sorted: the smallest
// sample with at least a fraction p of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// beyond is how many of n samples lie strictly above the nearest-rank
// p-quantile's rank.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// summarize reduces samples to their median and the highest percentile of
// tailLadder with at least minBeyond samples beyond it.
func summarize(samples []float64) Summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := Summary{N: len(s), P50: percentile(s, 0.5)}
	for _, p := range tailLadder {
		if beyond(len(s), p) >= minBeyond {
			out.Tail, out.TailAt = percentile(s, p), p
			return out
		}
	}
	out.Tail, out.TailAt, out.Thin = out.P50, 0.5, true
	return out
}

// median returns the median of xs (the mean of the middle two for an even
// count), or NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
