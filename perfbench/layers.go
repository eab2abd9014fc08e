package main

import (
	"context"
	"fmt"
	"time"

	"pathdriverwash/internal/assay"
	"pathdriverwash/internal/contam"
	"pathdriverwash/internal/obs"
	"pathdriverwash/internal/pdw"
	"pathdriverwash/internal/replan"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/solve"
	"pathdriverwash/internal/synth"
	"pathdriverwash/internal/washpath"
	"pathdriverwash/pkg/pathdriver"
)

// compressLimit is the reference-compression cap pathdriver.Solve
// applies; the traced pass calls CompressBase with the same cap.
const compressLimit = 5 * time.Second

// mergeRadius is PDW's default wash-group merge radius, used when the
// traced run replays contam.MergeGroups.
const mergeRadius = 4

// layerStats accumulates the per-layer metrics of a traced run.
type layerStats struct {
	v         map[string]float64
	pathWalls []float64
	// Work and wall time of every solver model (path ILPs, window
	// MILPs and compression LPs), for the node and pivot rates.
	nodes, pivots, modelWall float64
}

func newLayerStats() *layerStats { return &layerStats{v: map[string]float64{}} }

func (l *layerStats) add(name string, x float64) { l.v[name] += x }

// compressProven reports whether a reference compression, read from
// the live progress view attached to it, ended proven. Its model is a
// pure LP, so it is proven exactly when the root relaxation finished
// (one node solved). The view's gap cannot tell: when the cap stops
// the root LP, milp publishes the warm-start objective as the bound.
func compressProven(s obs.SolveSnapshot) bool { return s.Nodes > 0 }

// addModels records the path ILPs and window MILPs of one PDW run.
func (l *layerStats) addModels(st *solve.Stats) {
	if st == nil {
		return
	}
	for _, m := range st.MILPs {
		wall := m.Wall.Seconds()
		l.nodes += float64(m.Nodes)
		l.pivots += float64(m.SimplexIters)
		l.modelWall += wall
		done := m.Status == "optimal" || m.Status == "infeasible"
		if m.Label == "window-milp" {
			l.add("window.models", 1)
			l.add("window.s", wall)
			l.add("window.nodes", float64(m.Nodes))
			l.add("window.pivots", float64(m.SimplexIters))
			if done {
				l.add("window.proven", 1)
			}
			if n := len(m.Incumbents); n > 0 {
				l.add("window.time_to_best_s", m.Incumbents[n-1].Elapsed.Seconds())
			}
			continue
		}
		l.add("washpath.models", 1)
		l.add("washpath.ilp_s", wall)
		l.add("washpath.nodes", float64(m.Nodes))
		l.add("washpath.pivots", float64(m.SimplexIters))
		l.pathWalls = append(l.pathWalls, wall)
		switch m.Status {
		case "optimal":
			l.add("washpath.optimal", 1)
		case "infeasible":
			l.add("washpath.infeasible", 1)
		case "limit":
			// No incumbent at the cap: washpath falls back to BFS.
			l.add("washpath.limit", 1)
			l.add("washpath.fallback", 1)
		default: // "feasible(limit)": capped with an incumbent
			l.add("washpath.limit", 1)
		}
	}
}

// addCompress records one reference compression.
func (l *layerStats) addCompress(wall float64, snap obs.SolveSnapshot) {
	l.add("compress.calls", 1)
	l.add("compress.busy_s", wall)
	if !compressProven(snap) {
		l.add("compress.capped", 1)
	}
	l.nodes += float64(snap.Nodes)
	l.pivots += float64(snap.Pivots)
	l.modelWall += wall
}

// finish derives the ratio and percentile metrics.
func (l *layerStats) finish() map[string]float64 {
	v := l.v
	if n := v["washpath.models"]; n > 0 {
		v["washpath.useful_share"] = v["washpath.optimal"] / n
		v["washpath.ilp_p90_s"] = quantile(l.pathWalls, 0.9)
	}
	if l.modelWall > 0 {
		v["milp.nodes_per_s"] = l.nodes / l.modelWall
		v["lp.pivots_per_s"] = l.pivots / l.modelWall
	}
	if ev := v["contam.events"]; ev > 0 {
		v["contam.skip_share"] = v["contam.skipped"] / ev
	}
	delete(v, "contam.events")
	delete(v, "contam.skipped")
	return v
}

// tracedSolve runs the pipeline pathdriver.Solve runs — synthesis,
// reference compression, wash optimization, metrics — as separate
// public calls, each in its own span under parent, records their layer
// metrics, and returns the wash-free base schedule and PDW's result. The phases and models PDW reports in solve.Stats
// become derived spans inside the pdw span.
func tracedSolve(ctx context.Context, tr *tracer, parent int, a *assay.Assay, cfg synth.Config,
	opts pathdriver.Options, l *layerStats) (base *schedule.Schedule, res *pdw.Result, err error) {

	id := tr.begin(parent, "synth")
	syn, err := pathdriver.Synthesize(ctx, a, cfg)
	l.add("synth.calls", 1)
	l.add("synth.busy_s", tr.end(id))
	if err != nil {
		return nil, nil, fmt.Errorf("synthesize: %w", err)
	}

	prog := solve.NewProgress()
	id = tr.begin(parent, "compress")
	ref, err := pathdriver.CompressBase(solve.WithProgress(ctx, prog), syn.Schedule, compressLimit)
	l.addCompress(tr.end(id), prog.Snapshot())
	if err != nil {
		return nil, nil, fmt.Errorf("compress: %w", err)
	}

	id = tr.begin(parent, "pdw")
	res, err = pathdriver.OptimizeWash(ctx, syn.Schedule, opts)
	wall := tr.end(id)
	if err != nil {
		return nil, nil, fmt.Errorf("optimize: %w", err)
	}
	l.add("pdw.calls", 1)
	l.add("pdw.busy_s", wall)
	ph := res.Stats.PhaseSeconds()
	l.add("pdw.insertion_s", ph["wash-insertion"])
	l.add("pdw.window_s", ph["window-milp"])
	l.add("pdw.verify_s", ph["verify"])
	l.add("pdw.rounds", float64(res.Rounds))
	l.add("pdw.washes", float64(len(res.Washes)))
	l.add("pdw.integrated_removals", float64(res.IntegratedRemovals))
	l.addModels(res.Stats)
	derivePDW(tr, id, res.Stats)

	id = tr.begin(parent, "metrics")
	res.Schedule.ComputeMetrics(ref)
	tr.end(id)
	return syn.Schedule, res, nil
}

// derivePDW lays PDW's phases out in order from the start of its span,
// and each phase's models in order from the start of the phase.
func derivePDW(tr *tracer, pdwID int, st *solve.Stats) {
	at := tr.get(pdwID).Start
	models := st.MILPs
	for _, p := range st.PhaseList() {
		d := p.Wall.Seconds()
		ph := tr.derive(pdwID, "pdw."+p.Name, at, d)
		in := at
		for len(models) > 0 {
			m := models[0]
			window := m.Label == "window-milp"
			if window != (p.Name == "window-milp") || p.Name == "verify" {
				break
			}
			name := "washpath.ilp"
			if window {
				name = "window.milp"
			}
			tr.derive(ph, name, in, m.Wall.Seconds())
			in += m.Wall.Seconds()
			models = models[1:]
		}
		at += d
	}
}

// replayLayers times the layers PDW calls privately by calling their
// public functions on the instance's own inputs and outputs: the
// necessity analysis, grouping and merging on the wash-free schedule,
// heuristic wash paths for the merged groups, the precedence rebuild
// for the final washes, and the final contamination check.
func replayLayers(ctx context.Context, tr *tracer, parent int, base *schedule.Schedule,
	res *pdw.Result, l *layerStats) error {

	id := tr.begin(parent, "contam.analyze")
	an, err := contam.AnalyzeWithPolicyContext(ctx, base, contam.Policy{})
	l.add("contam.analyze_calls", 1)
	l.add("contam.analyze_s", tr.end(id))
	if err != nil {
		return fmt.Errorf("analyze: %w", err)
	}
	l.add("contam.requirements", float64(len(an.Requirements)))
	for reason, n := range an.Skips {
		l.add("contam.events", float64(n))
		if reason != contam.NoSkip {
			l.add("contam.skipped", float64(n))
		}
	}

	id = tr.begin(parent, "contam.group")
	groups := contam.GroupRequirements(an.Requirements)
	tr.end(id)
	id = tr.begin(parent, "contam.merge")
	merged := contam.MergeGroups(groups, mergeRadius)
	tr.end(id)
	l.add("contam.groups", float64(len(groups)))
	l.add("contam.merged_groups", float64(len(merged)))

	for _, g := range merged {
		id = tr.begin(parent, "washpath.bfs")
		_, _, err := washpath.BuildCoverContext(ctx, base.Chip, g.Targets, washpath.Options{})
		l.add("washpath.bfs_calls", 1)
		l.add("washpath.bfs_s", tr.end(id))
		if err != nil {
			return fmt.Errorf("heuristic wash path: %w", err)
		}
	}

	id = tr.begin(parent, "replan")
	plan, err := replan.Build(base, res.Washes)
	if err == nil {
		_, err = plan.Greedy()
	}
	l.add("replan.calls", 1)
	l.add("replan.s", tr.end(id))
	if err != nil {
		return fmt.Errorf("replan: %w", err)
	}
	l.add("replan.tasks", float64(len(plan.Tasks)))
	l.add("replan.free_pairs", float64(len(plan.FreePairs)))

	id = tr.begin(parent, "contam.verify")
	err = contam.Verify(res.Schedule)
	l.add("contam.verify_s", tr.end(id))
	return err
}
