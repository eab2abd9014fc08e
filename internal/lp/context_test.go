package lp

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestSolveContextPreCanceledErrors(t *testing.T) {
	p := NewProblem(2)
	p.Objective = []float64{-3, -2}
	p.AddConstraint(map[int]float64{0: 1, 1: 1}, LE, 4, "c1")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Solve(ctx, p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (lp has no usable partial iterate)", err)
	}
}

// TestSolveContextBackgroundMatchesSolve pins that a live context with
// a far deadline solves exactly like an unbounded one.
func TestSolveContextBackgroundMatchesSolve(t *testing.T) {
	p := NewProblem(2)
	p.Objective = []float64{-3, -2}
	p.AddConstraint(map[int]float64{0: 1, 1: 1}, LE, 4, "c1")
	p.AddConstraint(map[int]float64{0: 1, 1: 3}, LE, 6, "c2")
	plain := solveOK(t, p)
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	r, err := Solve(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != plain.Status || !approx(r.Obj, plain.Obj) {
		t.Fatalf("context solve diverged: %+v vs %+v", r, plain)
	}
}
