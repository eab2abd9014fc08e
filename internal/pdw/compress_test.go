package pdw_test

import (
	"context"
	"testing"
	"time"

	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/corpus"
	"pathdriverwash/internal/pdw"
	"pathdriverwash/internal/replan"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/solve"
)

// slackBase synthesizes a benchmark and doubles every start time.
// Synthesis already places each task at its earliest start, so the
// stretched copy gives the compression slack to remove while keeping
// the base's task order, and hence the wash-free plan, unchanged.
func slackBase(t *testing.T, b *benchmarks.Benchmark) *schedule.Schedule {
	t.Helper()
	syn, err := b.Synthesize(context.Background())
	if err != nil {
		t.Fatalf("%s: synthesize: %v", b.Name, err)
	}
	out := schedule.New(syn.Schedule.Chip, syn.Schedule.Assay)
	for _, task := range syn.Schedule.Tasks() {
		cp := *task
		cp.Start = 2 * task.Start
		cp.End = cp.Start + task.Duration()
		if err := out.Add(&cp); err != nil {
			t.Fatal(err)
		}
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("%s: stretched base invalid: %v", b.Name, err)
	}
	return out
}

func byName(t *testing.T, name string) *benchmarks.Benchmark {
	t.Helper()
	b, err := benchmarks.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameStarts fails unless got and want schedule the same tasks at the
// same start times.
func sameStarts(t *testing.T, label string, got, want *schedule.Schedule) {
	t.Helper()
	if len(got.Tasks()) != len(want.Tasks()) {
		t.Fatalf("%s: %d tasks, want %d", label, len(got.Tasks()), len(want.Tasks()))
	}
	for _, w := range want.Tasks() {
		g := got.Task(w.ID)
		if g == nil {
			t.Fatalf("%s: task %s missing", label, w.ID)
		}
		if g.Start != w.Start || g.End != w.End {
			t.Errorf("%s: task %s at [%d,%d), want [%d,%d)", label, w.ID, g.Start, g.End, w.Start, w.End)
		}
	}
}

// TestCompressBaseMatchesLP is the differential test against the
// paper's formulation: on instances whose wash-free time-window LP
// proves optimality quickly, the longest-path reference must schedule
// every task exactly where the LP warm-started from the greedy rebuild
// does, and reach the optimum the LP proves from the slack base alone.
func TestCompressBaseMatchesLP(t *testing.T) {
	var benches []*benchmarks.Benchmark
	for _, name := range []string{"PCR", "Kinase act-1", "Synthetic1"} {
		benches = append(benches, byName(t, name))
	}
	for seed := uint64(1); seed <= 3; seed++ {
		b, err := corpus.Generate(context.Background(), corpus.Params{
			Seed: seed, Ops: 7, Shape: corpus.Diamond, Density: 0.6,
		})
		if err != nil {
			t.Fatal(err)
		}
		benches = append(benches, b)
	}
	lp := func(plan *replan.Plan, warm *schedule.Schedule, name string) *schedule.Schedule {
		t.Helper()
		ref, optimal, err := pdw.OptimizeWindows(context.Background(), plan, warm, 30*time.Second, nil)
		if err != nil {
			t.Fatalf("%s: LP reference: %v", name, err)
		}
		if !optimal {
			t.Fatalf("%s: LP reference did not prove optimality", name)
		}
		return ref
	}
	for _, b := range benches {
		base := slackBase(t, b)
		got, err := pdw.CompressBase(context.Background(), base)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if got.Makespan() >= base.Makespan() {
			t.Fatalf("%s: reference %d removed no slack from %d", b.Name, got.Makespan(), base.Makespan())
		}
		plan, err := replan.Build(base, nil)
		if err != nil {
			t.Fatal(err)
		}
		greedy, err := plan.Greedy()
		if err != nil {
			t.Fatal(err)
		}
		sameStarts(t, b.Name, got, lp(plan, greedy, b.Name))
		if mk := lp(plan, base, b.Name).Makespan(); got.Makespan() != mk {
			t.Errorf("%s: reference makespan %d, LP optimum from the slack base %d", b.Name, got.Makespan(), mk)
		}
	}
}

// TestCompressBaseIsCriticalPath checks every Table II reference
// against independently computed earliest starts: Bellman-Ford style
// relaxation of the plan's precedence edges, with no topological order.
// The makespan must be the critical-path length.
func TestCompressBaseIsCriticalPath(t *testing.T) {
	for _, b := range benchmarks.All() {
		base := slackBase(t, b)
		ref, err := pdw.CompressBase(context.Background(), base)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if err := ref.Validate(); err != nil {
			t.Fatalf("%s: reference invalid: %v", b.Name, err)
		}
		plan, err := replan.Build(base, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.FreePairs) != 0 {
			t.Fatalf("%s: wash-free plan has %d free pairs", b.Name, len(plan.FreePairs))
		}
		starts, mk := earliestStarts(plan)
		for i, task := range plan.Tasks {
			if got := ref.Task(task.ID).Start; got != starts[i] {
				t.Errorf("%s: task %s starts at %d, earliest %d", b.Name, task.ID, got, starts[i])
			}
		}
		if ref.Makespan() != mk {
			t.Errorf("%s: reference makespan %d, critical path %d", b.Name, ref.Makespan(), mk)
		}
	}
}

// earliestStarts relaxes the plan's edges to a fixpoint and returns each
// task's earliest start and the critical-path length.
func earliestStarts(p *replan.Plan) ([]int, int) {
	start := make([]int, len(p.Tasks))
	for changed := true; changed; {
		changed = false
		for _, e := range p.Edges {
			if end := start[e[0]] + p.Durations[e[0]]; end > start[e[1]] {
				start[e[1]] = end
				changed = true
			}
		}
	}
	mk := 0
	for i, s := range start {
		mk = max(mk, s+p.Durations[i])
	}
	return start, mk
}

// TestCompressBaseProgressAndCancel pins the contract callers read: an
// attached Progress view reports one exact node with gap 0, a context
// canceled before the call yields the same reference without error,
// and no attached view is safe.
func TestCompressBaseProgressAndCancel(t *testing.T) {
	base := slackBase(t, byName(t, "PCR"))
	want, err := pdw.CompressBase(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}

	prog := solve.NewProgress()
	got, err := pdw.CompressBase(solve.WithProgress(context.Background(), prog), base)
	if err != nil {
		t.Fatal(err)
	}
	sameStarts(t, "with progress", got, want)
	s := prog.Snapshot()
	mk := float64(want.Makespan())
	if s.Model != "compress" || s.Nodes != 1 || s.Pivots != 0 {
		t.Errorf("snapshot model %q, %d nodes, %d pivots; want compress, 1, 0", s.Model, s.Nodes, s.Pivots)
	}
	if s.BestObj == nil || s.Bound == nil || s.Gap == nil {
		t.Fatalf("snapshot lacks incumbent, bound or gap: %+v", s)
	}
	if *s.BestObj != mk || *s.Bound != mk || *s.Gap != 0 {
		t.Errorf("incumbent %v, bound %v, gap %v; want %v, %v, 0", *s.BestObj, *s.Bound, *s.Gap, mk, mk)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err = pdw.CompressBase(ctx, base)
	if err != nil {
		t.Fatalf("canceled context: %v", err)
	}
	sameStarts(t, "canceled", got, want)
}
