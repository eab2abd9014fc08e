package corpus

import (
	"context"
	"testing"
)

// TestOracleCorpusSample runs the full differential oracle over a
// small washable corpus. Every invariant must hold: the corpus
// generator's washability proof uses the same heuristics as the
// oracle's reference solves, so a violation here is a solver bug, not
// a flaky instance.
func TestOracleCorpusSample(t *testing.T) {
	ctx := context.Background()
	n := 10
	if testing.Short() {
		n = 4
	}
	benches, err := GenerateSweep(ctx, SweepConfig{Seed: 42, N: n})
	if err != nil {
		t.Fatal(err)
	}
	verdicts, viols, err := CheckCorpus(ctx, benches, OracleOptions{MaxPathChecks: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range viols {
		t.Errorf("oracle violation: %s", v)
	}
	if len(verdicts) != n {
		t.Fatalf("%d verdicts for %d instances", len(verdicts), n)
	}
	checks := 0
	for _, v := range verdicts {
		if !v.OK() && len(v.Violations) == 0 {
			t.Errorf("%s: OK()=false with no violations", v.Instance)
		}
		checks += v.PathChecks
	}
	if checks == 0 {
		t.Error("oracle ran zero exact-vs-heuristic path checks across the corpus")
	}
}

// TestOracleCorpus200 is the oracle half of the corpus acceptance bar:
// the seeded 200-instance corpus passes the differential oracle with
// zero violations. Metamorphic re-solves are limited to every fourth
// instance and path checks are capped to keep the sweep tractable on
// one core; the capped run still accumulates hundreds of exact-vs-
// heuristic differentials and fifty full metamorphic re-solves.
func TestOracleCorpus200(t *testing.T) {
	if testing.Short() {
		t.Skip("200-instance oracle in -short")
	}
	ctx := context.Background()
	benches, err := GenerateSweep(ctx, SweepConfig{Seed: 2026, N: 200})
	if err != nil {
		t.Fatal(err)
	}
	violations := 0
	checks := 0
	for i, b := range benches {
		v, err := CheckInstance(ctx, b, OracleOptions{
			MaxPathChecks:   2,
			SkipMetamorphic: i%4 != 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, viol := range v.Violations {
			t.Errorf("oracle violation: %s", viol)
			violations++
		}
		checks += v.PathChecks
	}
	t.Logf("200 instances, %d path checks, %d violations", checks, violations)
}

func TestOracleRejectsTamperedSchedule(t *testing.T) {
	b := mustGen(t, Params{Seed: 17, Ops: 8, Shape: Pipeline, Density: 1.0})
	syn, err := b.Synthesize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	v := &Verdict{Instance: b.Name}
	// The untouched wash-free base schedule is structurally valid but
	// not contamination-free — checkClean must catch it through
	// contam.Verify or the sim replay.
	v.checkClean(InvPDWClean, syn.Schedule)
	if v.OK() {
		t.Skip("wash-free base happens to be clean; tamper fixture does not apply")
	}
	if v.Violations[0].Invariant != InvPDWClean {
		t.Errorf("violation attributed to %s, want %s", v.Violations[0].Invariant, InvPDWClean)
	}
}

func TestOracleCanceledContext(t *testing.T) {
	b := mustGen(t, Params{Seed: 19, Ops: 8, Shape: Layered, Density: 0.5})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CheckInstance(ctx, b, OracleOptions{}); err == nil {
		t.Error("canceled oracle reported success")
	}
}
