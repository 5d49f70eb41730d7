package main

import (
	"math"
	"testing"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 50, true}, {39, 50, true}, {40, 75, true},
		{99, 75, true}, {100, 90, true}, {999, 90, true}, {1000, 99, true}, {10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && float64(c.n)*(100-p)/100 < 10-1e-9 {
			t.Errorf("tailPercentile(%d) = %v leaves fewer than ten samples beyond", c.n, p)
		}
	}
}

func TestSummarizeReportsCountAndTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	l := summarize(xs)
	if l.N != 100 || l.TailPct != 90 || l.P50 != 50.5 || l.Max != 100 {
		t.Fatalf("summarize = %+v", l)
	}
	if math.Abs(l.Tail-90.1) > 1e-9 {
		t.Fatalf("p90 = %v, want 90.1", l.Tail)
	}
	if s := summarize(xs[:5]); s.TailPct != 0 || s.Tail != 0 || s.N != 5 {
		t.Fatalf("five samples must report no tail: %+v", s)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := quantile(xs, 50); q != 2.5 {
		t.Fatalf("median = %v", q)
	}
	if q := quantile(xs, 0); q != 1 {
		t.Fatalf("min = %v", q)
	}
	if xs[0] != 4 {
		t.Fatal("quantile sorted its input in place")
	}
	if !math.IsNaN(quantile(nil, 50)) {
		t.Fatal("quantile of nothing must be NaN")
	}
}
