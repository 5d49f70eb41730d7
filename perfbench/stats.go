package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail latency may be reported at, in
// tenths of a percent, highest first.
var tailLadder = []int{999, 990, 900, 750, 500}

// quantile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; xs need not be sorted.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 50) }

// tailPercentile picks the highest percentile of tailLadder that leaves
// at least ten of n samples beyond it, so a reported tail is never set by
// one or two outliers. ok is false when even the median has fewer than
// ten samples above it.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n*(1000-p) >= 10*1000 {
			return float64(p) / 10, true
		}
	}
	return 0, false
}

// latency summarizes one latency sample set: its median, its tail at the
// percentile tailPercentile allows, and the sample count.
type latency struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50_ms"`
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail_ms,omitempty"`
	Max     float64 `json:"max_ms"`
}

func summarize(ms []float64) latency {
	l := latency{N: len(ms)}
	if len(ms) == 0 {
		return l
	}
	l.P50 = median(ms)
	l.Max = quantile(ms, 100)
	if p, ok := tailPercentile(len(ms)); ok {
		l.TailPct, l.Tail = p, quantile(ms, p)
	}
	return l
}
