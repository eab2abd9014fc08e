package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample is not NaN")
	}
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n   int
		pct float64
	}{
		{5, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75},
		{100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9},
	} {
		got := tailOf(sample(c.n))
		if got.N != c.n || got.Pct != c.pct {
			t.Errorf("n=%d: got N=%d p%g, want p%g", c.n, got.N, got.Pct, c.pct)
		}
		if got.P50 != quantile(sample(c.n), 0.5) {
			t.Errorf("n=%d: median %v", c.n, got.P50)
		}
		if c.pct > 0 {
			beyond := 0
			for _, x := range sample(c.n) {
				if x > got.Value {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond, c.pct)
			}
		}
	}
}

func TestHistQuantile(t *testing.T) {
	before := map[float64]float64{0.1: 5, 1: 5, 10: 5}
	after := map[float64]float64{0.1: 5, 1: 15, 10: 25}
	// 20 new observations: 10 in (0.1, 1], 10 in (1, 10].
	if got := histQuantile(before, after, 0.5); math.Abs(got-1) > 1e-12 {
		t.Errorf("median = %v, want 1", got)
	}
	if got := histQuantile(before, after, 0.75); math.Abs(got-5.5) > 1e-12 {
		t.Errorf("p75 = %v, want 5.5", got)
	}
	if got := histQuantile(after, after, 0.9); got != 0 {
		t.Errorf("no new observations: got %v", got)
	}
}
