package milp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"pathdriverwash/internal/lp"
	"pathdriverwash/internal/solve"
)

// progressKnapsack builds a knapsack hard enough that branch & bound
// explores several nodes and improves its incumbent at least once.
func progressKnapsack(n int) *Problem {
	rng := rand.New(rand.NewSource(7))
	p := NewProblem(0)
	coefs := map[int]float64{}
	for i := 0; i < n; i++ {
		v := p.AddBinary()
		p.SetObjective(v, float64(-(rng.Intn(30) + 1)))
		coefs[v] = float64(rng.Intn(9) + 1)
	}
	p.LP.AddConstraint(coefs, lp.LE, float64(2*n), "cap")
	return p
}

func TestProgressPublishedFromBranchAndBound(t *testing.T) {
	prog := solve.NewProgress()
	ctx := solve.WithProgress(context.Background(), prog)
	res, err := Solve(ctx, progressKnapsack(16), Options{TimeLimit: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status %v", res.Status)
	}

	s := prog.Snapshot()
	if s.Nodes != int64(res.Nodes) {
		t.Fatalf("progress nodes = %d, result nodes = %d", s.Nodes, res.Nodes)
	}
	if s.Incumbents < 1 {
		t.Fatal("no incumbent published")
	}
	if s.BestObj == nil || math.Abs(*s.BestObj-res.Obj) > 1e-9 {
		t.Fatalf("best_obj = %v, result obj = %g", s.BestObj, res.Obj)
	}
	// The proven optimum closes the gap: the final bound equals the
	// incumbent and the relative gap collapses to 0.
	if s.Bound == nil || s.Gap == nil {
		t.Fatalf("bound/gap missing: %+v", s)
	}
	if *s.Gap != 0 {
		t.Fatalf("proven-optimal gap = %g, want 0", *s.Gap)
	}
	// Pivots flow through from the LP relaxations underneath.
	if s.Pivots == 0 {
		t.Fatal("no simplex pivots published")
	}
}

func TestProgressCountsPruning(t *testing.T) {
	prog := solve.NewProgress()
	ctx := solve.WithProgress(context.Background(), prog)
	// 120 random knapsacks: at least some prune by bound.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 6 + rng.Intn(6)
		p := NewProblem(0)
		coefs := map[int]float64{}
		for i := 0; i < n; i++ {
			v := p.AddBinary()
			p.SetObjective(v, float64(rng.Intn(20)-10))
			coefs[v] = float64(rng.Intn(9) + 1)
		}
		p.LP.AddConstraint(coefs, lp.LE, float64(rng.Intn(3*n)+1), "cap")
		if _, err := Solve(ctx, p, Options{TimeLimit: 20 * time.Second}); err != nil {
			t.Fatal(err)
		}
	}
	s := prog.Snapshot()
	if s.Nodes == 0 || s.Pruned == 0 {
		t.Fatalf("nodes=%d pruned=%d; expected both nonzero across 20 solves", s.Nodes, s.Pruned)
	}
}
