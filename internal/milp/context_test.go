package milp

import (
	"context"
	"errors"
	"testing"
	"time"

	"pathdriverwash/internal/lp"
	"pathdriverwash/internal/solve"
)

// hardKnapsack builds a strongly correlated knapsack whose branch &
// bound tree is far too large to finish within the test's sleep, so a
// mid-search cancel is guaranteed to land while the solver is working.
func hardKnapsack(n int) (*Problem, []float64) {
	p := NewProblem(0)
	coefs := map[int]float64{}
	total := 0.0
	for i := 0; i < n; i++ {
		v := p.AddBinary()
		w := float64(10 + 3*i)
		p.SetObjective(v, -(w + 5)) // maximize value (minimize negation)
		coefs[v] = w
		total += w
	}
	p.LP.AddConstraint(coefs, lp.LE, total/2, "cap")
	return p, make([]float64, n) // all-zeros incumbent is always feasible
}

func TestSolveContextCancelReturnsIncumbentFast(t *testing.T) {
	p, inc := hardKnapsack(45)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type outcome struct {
		r   Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		r, err := Solve(ctx, p, Options{TimeLimit: time.Minute, Incumbent: inc})
		done <- outcome{r, err}
	}()

	time.Sleep(200 * time.Millisecond)
	t0 := time.Now()
	cancel()
	o := <-done
	latency := time.Since(t0)

	if o.err != nil {
		t.Fatalf("cancellation must not be an error: %v", o.err)
	}
	if latency > 100*time.Millisecond {
		t.Fatalf("returned %v after cancel, want <100ms", latency)
	}
	if o.r.Wall < 150*time.Millisecond {
		t.Skipf("solver finished in %v before the cancel landed; instance too easy here", o.r.Wall)
	}
	if o.r.Status != Feasible {
		t.Fatalf("status = %v, want Feasible (best incumbent on cancel)", o.r.Status)
	}
	if o.r.X == nil {
		t.Fatal("incumbent lost on cancellation")
	}
	if err := p.CheckFeasible(o.r.X); err != nil {
		t.Fatalf("returned incumbent infeasible: %v", err)
	}
}

func TestSolveContextDeadlineBeatsTimeLimit(t *testing.T) {
	// A context deadline earlier than Options.TimeLimit must win.
	p, inc := hardKnapsack(45)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	r, err := Solve(ctx, p, Options{TimeLimit: time.Minute, Incumbent: inc})
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(t0); el > time.Second {
		t.Fatalf("ran %v; the 150ms ctx deadline should have stopped it", el)
	}
	if r.X == nil {
		t.Fatal("incumbent lost on deadline expiry")
	}
}

func TestSolveContextPreCanceled(t *testing.T) {
	p, inc := hardKnapsack(20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := Solve(ctx, p, Options{Incumbent: inc})
	if err != nil {
		t.Fatalf("pre-canceled ctx must not error: %v", err)
	}
	if r.Status != Feasible || r.X == nil {
		t.Fatalf("status = %v X = %v, want the provided incumbent back", r.Status, r.X)
	}
}

func TestBadIncumbentIsErrInfeasible(t *testing.T) {
	p := NewProblem(0)
	v := p.AddBinary()
	p.LP.AddConstraint(map[int]float64{v: 1}, lp.LE, 0, "zero")
	_, err := Solve(context.Background(), p, Options{Incumbent: []float64{1}})
	if err == nil {
		t.Fatal("infeasible incumbent must be rejected")
	}
	if !errors.Is(err, solve.ErrInfeasible) {
		t.Fatalf("err = %v, want errors.Is(err, solve.ErrInfeasible)", err)
	}
}
