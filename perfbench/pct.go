package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks (the method Python's
// statistics.quantiles calls "inclusive"). It does not modify xs and
// returns NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPerMille are the percentiles a tail report may name, in tenths
// of a percent, highest first (integers keep "ten samples beyond"
// exact: 100 samples leave exactly ten beyond p90).
var tailPerMille = []int{999, 990, 950, 900, 750, 500}

// tail summarises a latency sample the way the benchmark reports
// timings: the median, plus the highest percentile that still has at
// least ten samples beyond it (Pct 0 when even the median has fewer),
// and the sample count.
type tail struct {
	N     int
	P50   float64
	Pct   float64
	Value float64
}

func tailOf(xs []float64) tail {
	t := tail{N: len(xs), P50: median(xs)}
	for _, pm := range tailPerMille {
		if len(xs)*(1000-pm) >= 10*1000 {
			t.Pct, t.Value = float64(pm)/10, quantile(xs, float64(pm)/1000)
			return t
		}
	}
	return t
}
