package pdw

import (
	"context"
	"fmt"
	"math"
	"time"

	"pathdriverwash/internal/lp"
	"pathdriverwash/internal/milp"
	"pathdriverwash/internal/replan"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/solve"
)

// optimizeWindows solves the time-window MILP of Eqs. (1)-(8), (16)-(22):
// task start variables with fixed durations, precedence rows from the
// plan's DAG, big-M disjunctions for the plan's free conflict pairs, and
// makespan minimization. The greedy schedule warm-starts the search; the
// big-M constant is the greedy makespan, which is always a valid horizon.
//
// Pairs whose flip could reorder contamination relative to the greedy
// analysis (a wash versus a task touching its target cells) are fixed to
// the greedy order; see DESIGN.md for the safety argument.
func optimizeWindows(ctx context.Context, plan *replan.Plan, greedy *schedule.Schedule, limit time.Duration, stats *solve.Stats) (*schedule.Schedule, bool, error) {
	n := len(plan.Tasks)
	horizon := greedy.Makespan()
	if horizon <= 0 {
		return nil, false, fmt.Errorf("pdw: empty greedy schedule")
	}
	bigM := float64(horizon + 1)

	prob := milp.NewProblem(0)
	starts := make([]int, n)
	for i := range plan.Tasks {
		starts[i] = prob.AddContinuous(0, float64(horizon))
	}
	mk := prob.AddContinuous(0, float64(horizon))
	prob.SetObjective(mk, 1)

	// Precedence rows: end_i <= start_j.
	for _, e := range plan.Edges {
		prob.LP.AddConstraint(map[int]float64{
			starts[e[1]]: 1, starts[e[0]]: -1,
		}, lp.GE, float64(plan.Durations[e[0]]),
			fmt.Sprintf("prec-%s-%s", plan.Tasks[e[0]].ID, plan.Tasks[e[1]].ID))
	}
	// Makespan rows (Eq. 22 over all active tasks).
	for i, t := range plan.Tasks {
		if !t.Active() {
			continue
		}
		prob.LP.AddConstraint(map[int]float64{mk: 1, starts[i]: -1},
			lp.GE, float64(plan.Durations[i]), "mk-"+t.ID)
	}

	// Split free pairs into contamination-hazard pairs (fixed to greedy
	// order) and genuinely free disjunctions.
	gStart := func(i int) int { return greedy.Task(plan.Tasks[i].ID).Start }
	gEnd := func(i int) int { return greedy.Task(plan.Tasks[i].ID).End }

	type freePair struct {
		i, j int
		bvar int
	}
	var free []freePair
	for _, pr := range plan.FreePairs {
		i, j := pr[0], pr[1]
		if hazardPair(plan.Tasks[i], plan.Tasks[j]) {
			// Fix to greedy order.
			a, b := i, j
			if gEnd(j) <= gStart(i) {
				a, b = j, i
			}
			prob.LP.AddConstraint(map[int]float64{
				starts[b]: 1, starts[a]: -1,
			}, lp.GE, float64(plan.Durations[a]),
				fmt.Sprintf("haz-%s-%s", plan.Tasks[a].ID, plan.Tasks[b].ID))
			continue
		}
		b := prob.AddBinary()
		// b=0: i before j; b=1: j before i (the ε/μ/η of Eqs. 8/19/20).
		prob.LP.AddConstraint(map[int]float64{
			starts[j]: 1, starts[i]: -1, b: bigM,
		}, lp.GE, float64(plan.Durations[i]),
			fmt.Sprintf("disj0-%s-%s", plan.Tasks[i].ID, plan.Tasks[j].ID))
		prob.LP.AddConstraint(map[int]float64{
			starts[i]: 1, starts[j]: -1, b: -bigM,
		}, lp.GE, float64(plan.Durations[j])-bigM,
			fmt.Sprintf("disj1-%s-%s", plan.Tasks[i].ID, plan.Tasks[j].ID))
		free = append(free, freePair{i: i, j: j, bvar: b})
	}

	// Warm start from the greedy schedule.
	inc := make([]float64, prob.LP.NumVars)
	for i := range plan.Tasks {
		inc[starts[i]] = float64(gStart(i))
	}
	inc[mk] = float64(horizon)
	for _, fp := range free {
		if gEnd(fp.i) <= gStart(fp.j) {
			inc[fp.bvar] = 0
		} else {
			inc[fp.bvar] = 1
		}
	}

	solve.ProgressFromContext(ctx).SetModel("window-milp")
	res, err := milp.Solve(ctx, prob, milp.Options{TimeLimit: limit, Incumbent: inc})
	if err != nil {
		return nil, false, err
	}
	intVars := 0
	for _, isInt := range prob.Integer {
		if isInt {
			intVars++
		}
	}
	stats.AddMILP(solve.MILPStat{
		Label: "window-milp",
		Vars:  prob.LP.NumVars, IntVars: intVars,
		Constraints: len(prob.LP.Constraints),
		Nodes:       res.Nodes, Pruned: res.Pruned, SimplexIters: res.SimplexIters,
		Status: res.Status.String(), Optimal: res.Status == milp.Optimal,
		Wall: res.Wall, Incumbents: res.Incumbents,
	})
	if res.Status == milp.Infeasible {
		return nil, false, fmt.Errorf("pdw: window MILP %w", solve.ErrInfeasible)
	}
	if res.Status != milp.Optimal && res.Status != milp.Feasible {
		return nil, false, fmt.Errorf("pdw: window MILP status %v: %w", res.Status, solve.ErrBudgetExceeded)
	}
	out := make([]int, n)
	for i := range plan.Tasks {
		out[i] = int(math.Round(res.X[starts[i]]))
		if out[i] < 0 {
			out[i] = 0
		}
	}
	sched, err := plan.Apply(out)
	if err != nil {
		return nil, false, err
	}
	return sched, res.Status == milp.Optimal, nil
}

// CompressBase re-times the wash-free input schedule to its earliest
// start times. It provides the fair wash-free T_assay reference against
// which T_delay and waiting times are measured; without it, PDW's
// window optimization could look faster than the greedy-scheduled
// input and report negative wash delay.
//
// This is exactly the optimum of the time-window model (Eqs. 1-8, 22)
// applied to washed schedules: with no washes the plan has no free
// pairs (each free pair involves a wash) and every conflict-capable
// base pair is pinned to base order, so the model is makespan
// minimization over difference constraints on a DAG. Its optimum is
// the critical-path length, which earliest starts reach. One pass in
// topological order computes them in O(V+E).
//
// The pass publishes to the solve.Progress view in ctx, if any, as a
// one-node exact solve (incumbent = bound = makespan). It polls no
// deadline, so a canceled ctx yields the same reference, never an error.
func CompressBase(ctx context.Context, base *schedule.Schedule) (*schedule.Schedule, error) {
	plan, err := replan.Build(base, nil)
	if err != nil {
		return nil, err
	}
	order, err := plan.TopoOrder()
	if err != nil {
		return nil, err
	}
	succs := make([][]int, len(plan.Tasks))
	for _, e := range plan.Edges {
		succs[e[0]] = append(succs[e[0]], e[1])
	}
	starts := make([]int, len(plan.Tasks))
	for _, v := range order {
		end := starts[v] + plan.Durations[v]
		for _, w := range succs[v] {
			starts[w] = max(starts[w], end)
		}
	}
	ref, err := plan.Apply(starts)
	if err != nil {
		return nil, err
	}
	prog := solve.ProgressFromContext(ctx)
	prog.SetModel("compress")
	mk := float64(ref.Makespan())
	prog.Incumbent(mk)
	prog.SetBound(mk)
	prog.AddNodes(1)
	return ref, nil
}

// hazardPair reports whether flipping the pair's order against the
// greedy schedule could change which residues a sensitive use observes:
// a wash versus a task whose contamination or sensitivity touches the
// wash's targets.
func hazardPair(a, b *schedule.Task) bool {
	w, t := a, b
	if w.Kind != schedule.Wash {
		w, t = b, a
	}
	if w.Kind != schedule.Wash {
		return false
	}
	if t.Kind == schedule.Wash {
		// Two washes sharing cells: order is irrelevant for cleanliness
		// (both clean), only for resource conflicts.
		return false
	}
	tset := map[[2]int]bool{}
	for _, c := range w.WashTargets {
		tset[[2]int{c.X, c.Y}] = true
	}
	for _, c := range t.ContamCells {
		if tset[[2]int{c.X, c.Y}] {
			return true
		}
	}
	for _, c := range t.SensitiveCells {
		if tset[[2]int{c.X, c.Y}] {
			return true
		}
	}
	return false
}
