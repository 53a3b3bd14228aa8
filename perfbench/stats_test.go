package main

import "testing"

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(10) // 1..10
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}, {10, 1}, {1, 1}, {0, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..10 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		pick float64
		ok   bool
	}{
		{n: 1000, want: 99, pick: 99, ok: true},  // 10 beyond p99
		{n: 999, want: 99, pick: 90, ok: true},   // 9 beyond p99
		{n: 10000, want: 90, pick: 90, ok: true}, // never above the request
		{n: 100, want: 90, pick: 90, ok: true},   // exactly 10 beyond
		{n: 99, want: 90, pick: 75, ok: true},
		{n: 40, want: 90, pick: 75, ok: true}, // rank 30, 10 beyond
		{n: 39, want: 90, pick: 50, ok: true}, // rank 20, 19 beyond
		{n: 19, want: 90, ok: false},          // rank 10, 9 beyond the median
		{n: 7, want: 90, ok: false},
	} {
		p, ok := tailPercentile(c.n, c.want)
		if ok != c.ok || (ok && p != c.pick) {
			t.Errorf("tailPercentile(%d, %v) = %v, %v; want %v, %v", c.n, c.want, p, ok, c.pick, c.ok)
		}
	}
}

func TestSummarizeFlagsUnsupportedTails(t *testing.T) {
	s := summarize(seq(7), 90)
	if s.Supported || s.TailPct != 50 || s.Tail != 4 || s.P50 != 4 || s.N != 7 {
		t.Errorf("7 samples: %+v, want an unsupported tail repeating the median 4", s)
	}
	s = summarize(seq(200), 90)
	if !s.Supported || s.TailPct != 90 || s.Tail != 180 || s.P50 != 100 {
		t.Errorf("200 samples: %+v, want a supported p90 = 180", s)
	}
	s = summarize(seq(50), 90)
	if !s.Supported || s.TailPct != 75 || s.Tail != 38 {
		t.Errorf("50 samples: %+v, want the tail to fall back to p75 = 38", s)
	}
}
