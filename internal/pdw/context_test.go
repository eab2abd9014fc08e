package pdw

import (
	"context"
	"testing"
	"time"

	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/contam"
	"pathdriverwash/internal/solve"
)

// pcrSchedule synthesizes the PCR benchmark: large enough that the
// exact window MILP runs for several seconds, so a cancel reliably
// lands mid-solve.
func pcrSchedule(t *testing.T) *Result {
	t.Helper()
	b, err := benchmarks.ByName("PCR")
	if err != nil {
		t.Fatal(err)
	}
	syn, err := b.Synthesize(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan *Result, 1)
	errc := make(chan error, 1)
	go func() {
		res, err := Optimize(ctx, syn.Schedule, Options{
			Budget: solve.Budget{PerPath: 10 * time.Second, Window: time.Minute},
		})
		if err != nil {
			errc <- err
			return
		}
		done <- res
	}()

	time.Sleep(500 * time.Millisecond)
	t0 := time.Now()
	cancel()
	select {
	case err := <-errc:
		t.Fatalf("cancellation must degrade, not error: %v", err)
	case res := <-done:
		if lat := time.Since(t0); lat > 100*time.Millisecond {
			t.Fatalf("returned %v after cancel, want <100ms", lat)
		}
		return res
	}
	return nil
}

func TestOptimizeContextCancelReturnsIncumbentFast(t *testing.T) {
	res := pcrSchedule(t)
	if err := res.Schedule.Validate(); err != nil {
		t.Fatalf("degraded schedule invalid: %v", err)
	}
	if err := contam.Verify(res.Schedule); err != nil {
		t.Fatalf("degraded schedule not clean: %v", err)
	}
	if res.Stats == nil {
		t.Fatal("no stats recorded")
	}
	if !res.Stats.Canceled {
		t.Error("Stats.Canceled not set on a canceled run")
	}
}

func TestBudgetTotalDegradesGracefully(t *testing.T) {
	res := fixture(t)
	out, err := Optimize(context.Background(), res.Schedule, Options{
		Budget: solve.Budget{Total: time.Nanosecond},
	})
	if err != nil {
		t.Fatalf("expired budget must degrade, not error: %v", err)
	}
	if err := contam.Verify(out.Schedule); err != nil {
		t.Fatalf("degraded schedule not clean: %v", err)
	}
	if !out.Stats.Canceled {
		t.Error("Stats.Canceled not set after budget expiry")
	}
}

// TestBudgetFieldsWinOverDeprecatedLimits pins how the inner-solve caps
// resolve: set Budget fields are kept, and zero ones take the package
// defaults (3 s per path, 10 s for the window MILP).
func TestBudgetFieldsWinOverDeprecatedLimits(t *testing.T) {
	o := Options{Budget: solve.Budget{PerPath: time.Second, Window: 2 * time.Second}}
	w := o.withDefaults()
	if w.Budget.PerPath != time.Second || w.Budget.Window != 2*time.Second {
		t.Fatalf("limits = %v/%v, want the Budget fields", w.Budget.PerPath, w.Budget.Window)
	}
	w = Options{}.withDefaults()
	if w.Budget.PerPath != 3*time.Second || w.Budget.Window != 10*time.Second {
		t.Fatalf("default limits = %v/%v, want 3s/10s", w.Budget.PerPath, w.Budget.Window)
	}
}

func TestStatsRecorded(t *testing.T) {
	res := fixture(t)
	out, err := Optimize(context.Background(), res.Schedule, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	s := out.Stats
	if s == nil {
		t.Fatal("no stats")
	}
	if len(s.Phases) < 3 {
		t.Fatalf("phases = %+v, want wash-insertion, window-milp, verify", s.Phases)
	}
	if len(s.MILPs) == 0 {
		t.Fatal("no MILP solves recorded on an ILP run")
	}
	if s.Nodes() == 0 || s.SimplexIters() == 0 {
		t.Fatalf("zero solve work recorded: nodes=%d iters=%d", s.Nodes(), s.SimplexIters())
	}
	if len(s.Skips) == 0 {
		t.Fatal("necessity skip counts missing")
	}
	if s.Canceled {
		t.Fatal("uncanceled run marked canceled")
	}
}
