package lp

import (
	"context"
	"testing"

	"pathdriverwash/internal/obs"
)

// pivotHeavyProblem builds a dense LP that takes a meaningful number
// of simplex pivots, so the per-pivot instrumentation cost dominates
// fixed setup in the overhead benchmarks.
func pivotHeavyProblem(n int) *Problem {
	p := NewProblem(n)
	for v := 0; v < n; v++ {
		p.Objective[v] = float64(-(v%7 + 1))
	}
	for r := 0; r < n-5; r++ {
		c := map[int]float64{}
		for v := 0; v < n; v++ {
			c[v] = float64((v*r)%5 + 1)
		}
		p.AddConstraint(c, LE, float64(40+r), "cap")
	}
	return p
}

func TestObsCountersIncrease(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	solves0 := obs.Default().Counter("pdw_lp_solves_total").Value()
	pivots0 := obs.Default().Counter("pdw_lp_simplex_pivots_total").Value()

	res, err := Solve(context.Background(), pivotHeavyProblem(30))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Fatal("solve took no pivots; fixture too easy")
	}
	if got := obs.Default().Counter("pdw_lp_solves_total").Value() - solves0; got != 1 {
		t.Errorf("lp solves counter moved by %d, want 1", got)
	}
	gotPivots := obs.Default().Counter("pdw_lp_simplex_pivots_total").Value() - pivots0
	if gotPivots != int64(res.Iterations) {
		t.Errorf("pivot counter moved by %d, want %d", gotPivots, res.Iterations)
	}
}

func TestObsDisabledCountersStill(t *testing.T) {
	obs.Disable()
	pivots0 := obs.Default().Counter("pdw_lp_simplex_pivots_total").Value()
	if _, err := Solve(context.Background(), pivotHeavyProblem(30)); err != nil {
		t.Fatal(err)
	}
	if got := obs.Default().Counter("pdw_lp_simplex_pivots_total").Value(); got != pivots0 {
		t.Errorf("disabled solve moved the pivot counter by %d", got-pivots0)
	}
}

// BenchmarkSimplexObsOverhead quantifies the observability tax on the
// simplex pivot loop in both states. The acceptance contract
// (DESIGN.md "Observability cost contract") is that the disabled
// variant stays within 2% of an uninstrumented loop; its only cost is
// one atomic load per ctxCheckEvery (64) pivots, so the two sub-
// benchmarks should be statistically indistinguishable from each
// other apart from the enabled variant's counter flushes.

func BenchmarkSimplexObsOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		obs.Disable()
		for i := 0; i < b.N; i++ {
			if _, err := Solve(context.Background(), pivotHeavyProblem(30)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		obs.Enable()
		defer obs.Disable()
		for i := 0; i < b.N; i++ {
			if _, err := Solve(context.Background(), pivotHeavyProblem(30)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
