package harness

import (
	"context"
	"sort"
	"testing"

	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/obs"
	"pathdriverwash/internal/report"
)

// TestBenchmarkTraceCoverage locks in the observability acceptance
// contract: a traced benchmark run produces one "benchmark" root span
// whose children (phases, ILP solves, synthesis steps) cover at least
// 95% of the root's wall time, so a Chrome trace of a sweep accounts
// for essentially all solve time.
func TestBenchmarkTraceCoverage(t *testing.T) {
	b, err := benchmarks.ByName("PCR")
	if err != nil {
		t.Fatal(err)
	}
	buf := &obs.TraceBuffer{}
	remove := obs.AddSink(buf)
	defer remove()
	obs.Enable()
	defer obs.Disable()

	if _, err := RunBenchmark(context.Background(), b, quickOpts()); err != nil {
		t.Fatal(err)
	}

	spans := buf.Spans()
	var root *obs.SpanData
	for i := range spans {
		if spans[i].Name == "benchmark" {
			root = &spans[i]
			break
		}
	}
	if root == nil {
		t.Fatalf("no benchmark root span among %d spans", len(spans))
	}

	// Merge child span intervals inside the root's window.
	type iv struct{ s, e int64 }
	var ivs []iv
	rs, re := root.Start.UnixNano(), root.Start.Add(root.Duration).UnixNano()
	for _, d := range spans {
		if d.Root != root.ID || d.ID == root.ID {
			continue
		}
		s, e := d.Start.UnixNano(), d.Start.Add(d.Duration).UnixNano()
		if s < rs {
			s = rs
		}
		if e > re {
			e = re
		}
		if e > s {
			ivs = append(ivs, iv{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	var covered, cursor int64
	cursor = rs
	for _, v := range ivs {
		if v.s > cursor {
			cursor = v.s
		}
		if v.e > cursor {
			covered += v.e - cursor
			cursor = v.e
		}
	}
	total := re - rs
	if total <= 0 {
		t.Fatalf("root span has no duration")
	}
	if ratio := float64(covered) / float64(total); ratio < 0.95 {
		t.Errorf("child spans cover %.1f%% of the benchmark span, want >= 95%%", ratio*100)
	}
}

// TestBuildBenchFile checks the sweep-to-JSON assembly including the
// failure path: a nil outcome becomes a Failures entry and the file
// still validates.
func TestBuildBenchFile(t *testing.T) {
	b, err := benchmarks.ByName("PCR")
	if err != nil {
		t.Fatal(err)
	}
	outs, errs := RunPartial(context.Background(), []*benchmarks.Benchmark{b}, quickOpts(), 1)
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	f := BuildBenchFile([]*benchmarks.Benchmark{b}, outs, errs, nil, true, 1, outs[0].PDWTime+outs[0].DAWOTime)
	if err := f.Validate(); err != nil {
		t.Fatalf("generated file invalid: %v", err)
	}
	if len(f.Benchmarks) != 1 || f.Benchmarks[0].Name != "PCR" {
		t.Fatalf("benchmarks = %+v", f.Benchmarks)
	}
	if f.Benchmarks[0].PDW.WallSeconds <= 0 || f.Benchmarks[0].PDW.TAssaySeconds <= 0 {
		t.Errorf("PDW result not populated: %+v", f.Benchmarks[0].PDW)
	}
	// The per-phase breakdown rides along: the shared setup stages and
	// the PDW pipeline phases recorded by solve.Stats.
	if _, ok := f.Benchmarks[0].SetupSeconds["synthesis"]; !ok {
		t.Errorf("setup_s missing synthesis: %+v", f.Benchmarks[0].SetupSeconds)
	}
	if _, ok := f.Benchmarks[0].PDW.PhaseSeconds["wash-insertion"]; !ok {
		t.Errorf("pdw phase_s missing wash-insertion: %+v", f.Benchmarks[0].PDW.PhaseSeconds)
	}
	// Single-shot sweeps carry no samples.
	if len(f.Benchmarks[0].PDW.WallSamples) != 0 {
		t.Errorf("single-shot sweep has wall_samples: %v", f.Benchmarks[0].PDW.WallSamples)
	}

	// A failed benchmark must surface as a failure, not vanish.
	f2 := BuildBenchFile([]*benchmarks.Benchmark{b}, []*Outcome{nil},
		[]error{context.DeadlineExceeded}, nil, true, 1, 0)
	if len(f2.Failures) != 1 || f2.Failures[0].Name != "PCR" {
		t.Fatalf("failures = %+v", f2.Failures)
	}
	if err := f2.Validate(); err != nil {
		t.Fatalf("failure-only file invalid: %v", err)
	}
	var _ *report.BenchFile = f2
}

// TestRunSampledPartial checks the repeated-sweep sampling contract:
// count iterations produce count wall-time samples per method, the
// returned outcomes are the first iteration's, and the resulting bench
// file round-trips with the samples attached.
func TestRunSampledPartial(t *testing.T) {
	b, err := benchmarks.ByName("PCR")
	if err != nil {
		t.Fatal(err)
	}
	benches := []*benchmarks.Benchmark{b}
	outs, errs, samples := RunSampledPartial(context.Background(), benches, quickOpts(), 1, 3)
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	if len(samples) != 1 {
		t.Fatalf("samples = %+v, want one benchmark entry", samples)
	}
	if len(samples[0].PDWWall) != 3 || len(samples[0].DAWOWall) != 3 {
		t.Fatalf("sample counts = %d/%d, want 3/3", len(samples[0].DAWOWall), len(samples[0].PDWWall))
	}
	if samples[0].PDWWall[0] != outs[0].PDWTime.Seconds() {
		t.Errorf("first sample %g != first outcome wall %g", samples[0].PDWWall[0], outs[0].PDWTime.Seconds())
	}
	for _, s := range samples[0].PDWWall {
		if s <= 0 {
			t.Errorf("non-positive wall sample %g", s)
		}
	}
	f := BuildBenchFile(benches, outs, errs, samples, true, 1, 0)
	if err := f.Validate(); err != nil {
		t.Fatalf("sampled bench file invalid: %v", err)
	}
	if got := f.Benchmarks[0].PDW.WallSamples; len(got) != 3 {
		t.Errorf("bench file wall_samples = %v, want 3 entries", got)
	}
}

// TestRunPartialFailureCounter locks in the satellite fix: benchmarks
// a sweep could not complete — including never-started ones under a
// dead context — increment pdw_harness_benchmark_failures_total, so
// failed sweeps show up in /metrics and in BenchFile metrics.
func TestRunPartialFailureCounter(t *testing.T) {
	b, err := benchmarks.ByName("PCR")
	if err != nil {
		t.Fatal(err)
	}
	obs.Enable()
	defer obs.Disable()
	before := obs.Default().Counter("pdw_harness_benchmark_failures_total").Value()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // everything fails as "not started"
	outs, errs := RunPartial(ctx, []*benchmarks.Benchmark{b, b}, quickOpts(), 1)
	for i := range outs {
		if outs[i] != nil || errs[i] == nil {
			t.Fatalf("canceled sweep: outs[%d]=%v errs[%d]=%v", i, outs[i], i, errs[i])
		}
	}
	after := obs.Default().Counter("pdw_harness_benchmark_failures_total").Value()
	if after-before != 2 {
		t.Errorf("failure counter advanced by %d, want 2", after-before)
	}
	// And the snapshot (what BuildBenchFile embeds) carries it.
	if _, ok := obs.Default().Snapshot()["pdw_harness_benchmark_failures_total"]; !ok {
		t.Error("metrics snapshot lacks pdw_harness_benchmark_failures_total")
	}
}
