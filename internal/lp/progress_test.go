package lp

import (
	"context"
	"testing"

	"pathdriverwash/internal/solve"
)

func TestProgressPivotsPublished(t *testing.T) {
	prog := solve.NewProgress()
	ctx := solve.WithProgress(context.Background(), prog)
	res, err := Solve(ctx, pivotHeavyProblem(30))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Fatal("solve took no pivots; fixture too easy")
	}
	// The final flush reconciles the stride remainder, so the published
	// total matches the result exactly.
	if got := prog.Snapshot().Pivots; got != int64(res.Iterations) {
		t.Fatalf("progress pivots = %d, want %d", got, res.Iterations)
	}
}

func TestProgressAbsentIsFree(t *testing.T) {
	// Without a progress view on the context, the solve must not panic
	// and publishes nowhere (the nil-receiver contract).
	res, err := Solve(context.Background(), pivotHeavyProblem(30))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Fatal("solve took no pivots")
	}
}

// BenchmarkProgressOverhead quantifies the live-progress tax on the
// simplex pivot loop (DESIGN.md "Progress snapshot cost contract": the
// attached variant stays within 2% of the bare one). The publisher only
// runs at the existing ctxCheckEvery (64-pivot) flush cadence, so the
// cost is one pointer compare per pivot batch plus one atomic add per
// flush.
func BenchmarkProgressOverhead(b *testing.B) {
	b.Run("bare", func(b *testing.B) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			if _, err := Solve(ctx, pivotHeavyProblem(30)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("progress", func(b *testing.B) {
		ctx := solve.WithProgress(context.Background(), solve.NewProgress())
		for i := 0; i < b.N; i++ {
			if _, err := Solve(ctx, pivotHeavyProblem(30)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
