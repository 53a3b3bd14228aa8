package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it
// is reported: a tail figure resting on fewer is one or two outliers.
const minBeyond = 10

// percentileLadder lists the percentiles a tail may fall back to,
// highest first.
var percentileLadder = []float64{99, 90, 75, 50}

// rank returns the 1-based nearest-rank position of percentile p in n
// sorted samples: the smallest rank r with r/n >= p/100. The epsilon
// keeps floating-point error in p/100·n from rounding a rank up.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank percentile p of sorted samples
// (NaN for none).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// tailPercentile picks the highest percentile at or below want, from
// the ladder, that has at least minBeyond of n samples above it. ok is
// false when even the median lacks them.
func tailPercentile(n int, want float64) (p float64, ok bool) {
	for _, p := range percentileLadder {
		if p <= want && n-rank(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// summary is a timing distribution as the benchmark reports it: the
// median, one tail percentile and the sample count. When too few
// samples lie beyond every percentile above the median, Supported is
// false and the tail repeats the median: a maximum of a handful of
// samples would only report the noisiest one.
type summary struct {
	N         int     `json:"n"`
	P50       float64 `json:"p50"`
	TailPct   float64 `json:"tail_pct"`
	Tail      float64 `json:"tail"`
	Supported bool    `json:"tail_supported"`
}

// summarize sorts a copy of xs and summarizes it with the tail at the
// highest supported percentile up to want.
func summarize(xs []float64, want float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), P50: percentile(s, 50), TailPct: 50}
	if p, ok := tailPercentile(len(s), want); ok && p > 50 {
		out.TailPct, out.Supported = p, true
	}
	out.Tail = percentile(s, out.TailPct)
	return out
}

// median is percentile 50 of an unsorted sample.
func median(xs []float64) float64 { return summarize(xs, 50).P50 }

// mean is the arithmetic mean (NaN for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
