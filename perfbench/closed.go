package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"pathdriverwash/internal/assayio"
	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/corpus"
	"pathdriverwash/internal/pdw"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/solve"
	"pathdriverwash/pkg/pathdriver"
)

// closedLoop is a workload with one client sending its next solve only
// after the previous one returned: sequential pathdriver.Solve calls
// over a fixed instance list.
type closedLoop struct {
	name string
	opts pathdriver.Options
	// limit is the latency limit of one solve (slo_met_share).
	limit time.Duration
	// exact selects how proven_share counts models: the wash-path ILPs
	// and window MILPs in solve.Stats, or — in heuristic mode, where
	// neither runs — the reference-compression LP of each solve.
	exact bool
	// setupReps is how many times set-up runs (setup_s is the median).
	setupReps int
	instances func(ctx context.Context, seed uint64) ([]*benchmarks.Benchmark, error)
}

// table2Exact solves four fixed Table II instances with exact paths
// and windows. Synthetic1 and ProteinSplit are left out (wash paths
// within 0.4 s of the 3 s cap), as are Synthetic2 and Synthetic3 (paths
// hit the cap).
var table2Exact = closedLoop{
	name:      "table2-exact",
	opts:      pathdriver.Options{Budget: pathdriver.Budget{PerPath: 3 * time.Second, Window: time.Second}},
	limit:     30 * time.Second,
	exact:     true,
	setupReps: 9,
	instances: func(context.Context, uint64) ([]*benchmarks.Benchmark, error) {
		var out []*benchmarks.Benchmark
		for _, name := range []string{"PCR", "IVD", "Kinase act-1", "Kinase act-2"} {
			b, err := benchmarks.ByName(name)
			if err != nil {
				return nil, err
			}
			out = append(out, b)
		}
		return out, nil
	},
}

// corpusRungs is the corpus-heuristic instance list, all in the corpus
// sweep's default 6-24 op range. Twenty-four 7-op diamonds carry the
// per-solve latency percentiles: one shape and size keep the sample
// homogeneous (about 0.2 s a solve, where mixing shapes spreads the
// cost by 2x), so the median moves with the solver rather than with
// which shapes a seed drew. One instance each of 20, 22 and
// 24 ops keeps the large-instance cost — reference compression at its
// 5 s cap — in the pass, in the other three shapes; it is a tenth of
// the solves, so the 90th percentile falls on it.
var corpusRungs = []rung{
	{ops: 7, n: 24, shapes: []corpus.Shape{corpus.Diamond}},
	{ops: 20, n: 1}, {ops: 22, n: 1}, {ops: 24, n: 1},
}

// corpusHeuristic solves a seeded corpus in the cheap mode pdwd sheds
// to: BFS wash paths and greedy windows.
var corpusHeuristic = closedLoop{
	name:      "corpus-heuristic",
	opts:      pathdriver.Options{Heuristic: true},
	limit:     time.Second,
	setupReps: 3,
	instances: func(ctx context.Context, seed uint64) ([]*benchmarks.Benchmark, error) {
		return ladder(ctx, seed, corpusRungs)
	},
}

// request is one prepared solve.
type request struct {
	name string
	req  pathdriver.Request
}

// passStats is what one untraced pass measured.
type passStats struct {
	solveS                    float64 // summed Solve wall time
	latencies                 []float64
	nWash, tAssay             int
	lWash                     float64
	models, proven            int
	attempted, failed, sloMet int
}

func (w closedLoop) run(ctx context.Context, cfg config) (*outcome, error) {
	reqs, setupS, err := medianSetup(w.setupReps, func() ([]request, error) {
		benches, err := w.instances(ctx, cfg.seed)
		if err != nil {
			return nil, err
		}
		out := make([]request, len(benches))
		for i, b := range benches {
			out[i] = request{b.Name, pathdriver.Request{Assay: pathdriver.NewAssayDocument(b.Assay, b.Config),
				Method: pathdriver.MethodPDW, Options: w.opts}}
		}
		return out, nil
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	o := &outcome{values: map[string]float64{}}
	var tally simTally
	// The warm-up's answer is not used; the timed pass checks the same request.
	warmUp(func() { _, _ = pathdriver.Solve(ctx, reqs[0].req) })

	// Passes run back to back while another one fits in the run; the
	// first always runs.
	var passes []passStats
	start := time.Now()
	for len(passes) == 0 || time.Since(start)+time.Duration(passes[0].solveS*float64(time.Second)) <= cfg.seconds {
		passes = append(passes, w.pass(ctx, reqs, o, &tally))
		if cfg.trace {
			break
		}
	}
	var solveS, lat []float64
	models, provenN, slo := 0, 0, 0
	for _, p := range passes {
		solveS = append(solveS, p.solveS)
		lat = append(lat, p.latencies...)
		models += p.models
		provenN += p.proven
		slo += p.sloMet
		o.attempted += p.attempted
		o.failed += p.failed
	}
	if cfg.trace {
		return w.traced(ctx, cfg, reqs, median(solveS), o)
	}
	first := passes[0]
	t := tailOf(lat)
	fmt.Fprintf(os.Stderr, "%s: %d passes, solve_s %.3f (median), latency n=%d p50=%.3fs p%g=%.3fs\n",
		w.name, len(passes), median(solveS), t.N, t.P50, t.Pct, t.Value)
	o.values = map[string]float64{
		"setup_s":       setupS,
		"solve_s":       median(solveS),
		"n_wash":        float64(first.nWash),
		"l_wash_mm":     first.lWash,
		"t_assay_s":     float64(first.tAssay),
		"proven_share":  ratio(provenN, models),
		"ok_share":      1 - ratio(o.failed, o.attempted),
		"latency_p50_s": t.P50,
		"latency_p90_s": quantile(lat, 0.9),
		"slo_met_share": ratio(slo, o.attempted),
	}
	return o, nil
}

// pass runs every request once through pathdriver.Solve, timing only
// the Solve calls, then checks each answer.
func (w closedLoop) pass(ctx context.Context, reqs []request, o *outcome, tally *simTally) passStats {
	var p passStats
	for _, r := range reqs {
		prog := solve.NewProgress()
		t0 := time.Now()
		resp, err := pathdriver.Solve(solve.WithProgress(ctx, prog), r.req)
		lat := time.Since(t0).Seconds()
		p.attempted++
		p.solveS += lat
		p.latencies = append(p.latencies, lat)
		if err == nil {
			err = checkResponse(resp, tally)
		}
		if err != nil {
			p.failed++
			o.fail("%s: %v", r.name, err)
			continue
		}
		if lat <= w.limit.Seconds() {
			p.sloMet++
		}
		p.nWash += resp.Metrics.NWash
		p.lWash += resp.Metrics.LWashMM
		p.tAssay += resp.Metrics.TAssay
		if !w.exact {
			p.models++
			if compressProven(prog.Snapshot()) {
				p.proven++
			}
			continue
		}
		for _, m := range resp.Stats.MILPs {
			p.models++
			if m.Status == "optimal" || m.Status == "infeasible" {
				p.proven++
			}
		}
	}
	return p
}

// checkResponse is the output check of one library answer.
func checkResponse(r *pathdriver.Response, tally *simTally) error {
	if err := r.Reference.Validate(); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if err := checkMetrics(r.Schedule, r.Metrics.NWash, r.Metrics.LWashMM, r.Metrics.TAssay); err != nil {
		return err
	}
	return checkSchedule(r.Schedule, tally)
}

// traced runs one traced pass — the pipeline as separate public calls,
// each in a span — then replays the inner layers per instance, writes
// the trace, and reports the per-layer metrics. untracedS is the
// untraced pass's solve_s, for the tracing overhead.
func (w closedLoop) traced(ctx context.Context, cfg config, reqs []request, untracedS float64,
	o *outcome) (*outcome, error) {

	var tally simTally
	tr := newTracer()
	l := newLayerStats()
	type done struct {
		name string
		span int
		base *schedule.Schedule
		res  *pdw.Result
	}
	var runs []done
	pass := tr.begin(0, "pass")
	for _, r := range reqs {
		in := tr.begin(pass, "instance")
		a, scfg, err := assayio.FromDocument(r.req.Assay)
		var base *schedule.Schedule
		var res *pdw.Result
		if err == nil {
			base, res, err = tracedSolve(ctx, tr, in, a, scfg, r.req.Options, l)
		}
		tr.end(in, "name", r.name)
		o.attempted++
		if err != nil {
			o.failed++
			o.fail("%s (traced): %v", r.name, err)
			continue
		}
		runs = append(runs, done{r.name, in, base, res})
	}
	passS := tr.end(pass)

	var rows []instanceRow
	covered := 0.0
	for _, d := range runs {
		s := tr.get(d.span)
		rows = append(rows, instanceRow{Name: d.name, WallS: s.Dur, SelfS: tr.selfByName(d.span)})
		covered += coveredByChildren(tr, d.span)
		id := tr.begin(0, "check")
		if err := checkSchedule(d.res.Schedule, &tally); err != nil {
			o.failed++
			o.fail("%s (traced): %v", d.name, err)
		}
		tr.end(id, "instance", d.name)
		id = tr.begin(0, "replay")
		if err := replayLayers(ctx, tr, id, d.base, d.res, l); err != nil {
			o.failed++
			o.fail("%s (replay): %v", d.name, err)
		}
		tr.end(id, "instance", d.name)
	}
	v := l.finish()
	v["sim.s"] = tally.busy.Seconds()
	v["sim.violations"] = float64(tally.violations)
	v["sim.holding_violations"] = float64(tally.holding)
	v["trace.overhead_share"] = passS/untracedS - 1
	v["trace.coverage_share"] = covered / passS
	o.values = v
	path, err := tr.write(cfg.out, w.name, cfg.seed, rows)
	if err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%s: traced pass %.3fs (untraced %.3fs), layers cover %.1f%%; trace %s\n",
		w.name, passS, untracedS, 100*covered/passS, path)
	return o, nil
}

// coveredByChildren is how much of span id its direct children cover,
// in seconds.
func coveredByChildren(tr *tracer, id int) float64 {
	s := tr.get(id)
	var kids []span
	for _, k := range tr.spans {
		if k.Parent == id {
			kids = append(kids, k)
		}
	}
	return covered(kids, s.Start, s.Start+s.Dur)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
