// Metamorphic tests over the paper's benchmark suite: transformations
// that provably cannot change solution quality must leave every
// optimizer's n_wash and l_wash_mm untouched on every Table II
// benchmark. The suite lives in an external test package because the
// transformations come from internal/corpus, which imports benchmarks.
//
// Two transformations, two scopes (see internal/corpus/metamorphic.go
// and DESIGN.md for the soundness argument):
//
//   - Fluid relabeling is invariant END-TO-END: synthesis and both
//     optimizers only ever compare fluid types for equality, so the
//     relabeled assay re-synthesizes and re-solves to the same quality.
//   - Op-ID permutation is invariant only at the WASH LAYER: synthesis
//     breaks placement ties on sorted op IDs, so the permutation is
//     applied to the synthesized schedule and only the wash optimizers
//     re-run.
//
// Both solvers run in their deterministic heuristic mode (BFS paths,
// greedy windows — no ILP time limits that could make reference and
// transformed solves diverge by timing noise).
package benchmarks_test

import (
	"context"
	"testing"
	"time"

	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/corpus"
	"pathdriverwash/internal/dawo"
	"pathdriverwash/internal/pdw"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/solve"
)

const metamorphicSeed = 7

func heuristicOpts() pdw.Options {
	return pdw.Options{
		HeuristicPaths:   true,
		HeuristicWindows: true,
		Budget:           solve.Budget{Total: 30 * time.Second},
	}
}

func solvePDW(t *testing.T, base *schedule.Schedule) schedule.Metrics {
	t.Helper()
	res, err := pdw.Optimize(context.Background(), base, heuristicOpts())
	if err != nil {
		t.Fatalf("pdw: %v", err)
	}
	return res.Schedule.ComputeMetrics(base)
}

func solveDAWO(t *testing.T, base *schedule.Schedule) schedule.Metrics {
	t.Helper()
	res, err := dawo.Optimize(context.Background(), base, dawo.Options{
		Budget: solve.Budget{Total: 30 * time.Second},
	})
	if err != nil {
		t.Fatalf("dawo: %v", err)
	}
	return res.Schedule.ComputeMetrics(base)
}

func sameQuality(t *testing.T, method, transform string, got, want schedule.Metrics) {
	t.Helper()
	if got.NWash != want.NWash || got.LWashMM != want.LWashMM {
		t.Errorf("%s after %s: n_wash %d (want %d), l_wash_mm %g (want %g)",
			method, transform, got.NWash, want.NWash, got.LWashMM, want.LWashMM)
	}
}

// suite returns the benchmarks under test: every Table II benchmark in
// a full run, the two cheapest representatives in -short.
func suite(t *testing.T) []*benchmarks.Benchmark {
	all := benchmarks.All()
	if !testing.Short() {
		return all
	}
	short := make([]*benchmarks.Benchmark, 0, 2)
	for _, b := range all {
		if b.Name == "PCR" || b.Name == "Synthetic1" {
			short = append(short, b)
		}
	}
	if len(short) == 0 {
		t.Fatal("short suite selected no benchmarks")
	}
	return short
}

func TestRelabelInvariantTableII(t *testing.T) {
	for _, b := range suite(t) {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			syn, err := b.Synthesize(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			refPDW := solvePDW(t, syn.Schedule)
			refDAWO := solveDAWO(t, syn.Schedule)

			rb, err := corpus.RelabelBenchmark(b, metamorphicSeed)
			if err != nil {
				t.Fatal(err)
			}
			rsyn, err := rb.Synthesize(context.Background())
			if err != nil {
				t.Fatalf("relabeled benchmark no longer synthesizes: %v", err)
			}
			sameQuality(t, "pdw", "fluid relabeling", solvePDW(t, rsyn.Schedule), refPDW)
			sameQuality(t, "dawo", "fluid relabeling", solveDAWO(t, rsyn.Schedule), refDAWO)
		})
	}
}

func TestPermuteInvariantTableII(t *testing.T) {
	for _, b := range suite(t) {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			syn, err := b.Synthesize(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			refPDW := solvePDW(t, syn.Schedule)
			refDAWO := solveDAWO(t, syn.Schedule)

			p, err := corpus.PermuteOpIDs(syn.Schedule, metamorphicSeed)
			if err != nil {
				t.Fatal(err)
			}
			sameQuality(t, "pdw", "op-ID permutation", solvePDW(t, p), refPDW)
			sameQuality(t, "dawo", "op-ID permutation", solveDAWO(t, p), refDAWO)
		})
	}
}
