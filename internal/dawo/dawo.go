// Package dawo implements the comparison baseline of Sec. IV: the
// delay-aware wash optimization method of [10]. Following the paper's
// description:
//
//   - wash operations are introduced from the positions of contaminated
//     spots, conservatively (no Type-2 same-fluid skip: any foreign
//     residue on a reused cell is washed);
//   - each contaminated region is washed by its own independent path
//     computed with breadth-first search (no resource sharing between
//     wash operations, no global optimization);
//   - wash operations are assigned to time intervals with a sweep-line
//     style earliest-fit pass, delaying subsequent tasks when no free
//     interval exists.
//
// Like PDW, DAWO runs to a contamination-free fixpoint, so its output
// schedules pass the same correctness oracle (contam.Verify).
package dawo

import (
	"context"
	"errors"
	"fmt"
	"math"

	"pathdriverwash/internal/contam"
	"pathdriverwash/internal/obs"
	"pathdriverwash/internal/replan"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/solve"
	"pathdriverwash/internal/washpath"
)

// Options tunes the baseline.
type Options struct {
	// MaxRounds caps wash-insertion fixpoint rounds (default 60).
	MaxRounds int
	// Budget bounds the run; only Budget.Total applies (DAWO solves no
	// inner ILPs). Expiry of the Budget.Total deadline degrades
	// gracefully: the remaining fixpoint rounds (pure BFS work) complete
	// and the clean schedule is returned with Stats.Canceled set.
	Budget solve.Budget
}

// Result is the baseline's output.
type Result struct {
	// Schedule is the rebuilt execution procedure with washes.
	Schedule *schedule.Schedule
	// Washes are the inserted wash operations.
	Washes []replan.WashSpec
	// Rounds is the number of fixpoint rounds used.
	Rounds int
	// Stats is the structured solve telemetry (phase wall times and the
	// conservative policy's skip counts; DAWO runs no ILPs).
	Stats *solve.Stats
}

// policy is DAWO's conservative contamination judgement: residue of any
// foreign task counts, even of the same fluid type.
var policy = contam.Policy{IgnoreFluidTypes: true}

// Optimize inserts washes into the base (wash-free) schedule under ctx.
// DAWO's fixpoint rounds are pure BFS and sweep work — there is no
// partial incumbent a caller could use (an unconverged schedule is
// still contaminated) — so a canceled ctx or an expired Budget.Total
// does not abort: the remaining rounds complete (cheaply) and the clean
// schedule is returned with Stats.Canceled set.
func Optimize(ctx context.Context, base *schedule.Schedule, opts Options) (*Result, error) {
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 60
	}
	ctx, stop := opts.Budget.Context(ctx)
	defer stop()
	defer func() { solve.ObserveOverrun(ctx) }()
	ctx, span := obs.Start(ctx, "dawo.optimize", obs.A("tasks", len(base.Tasks())))
	defer span.End()
	stats := &solve.Stats{}
	// Mirror phase transitions and cancellation into the live progress
	// view when the root caller attached one to the context.
	prog := solve.ProgressFromContext(ctx)
	stats.BindProgress(prog)
	cp := solve.NewCheckpoint(ctx)
	ctx, endFix := stats.StartPhase(ctx, "wash-insertion")

	cur := base
	var washes []replan.WashSpec
	var firstSkips map[contam.SkipReason]int
	for round := 1; round <= maxRounds; round++ {
		// DAWO solves no ILPs; the fixpoint round is its unit of live
		// progress (one label store per round, rounds are few).
		prog.SetModel(fmt.Sprintf("bfs round %d", round))
		an, err := analyzeRound(ctx, &cp, cur)
		if err != nil {
			return nil, err
		}
		if firstSkips == nil {
			firstSkips = an.Skips
		}
		if len(an.Requirements) == 0 {
			if err := cur.Validate(); err != nil {
				return nil, fmt.Errorf("dawo: final schedule invalid: %w", err)
			}
			endFix()
			stats.SetSkips(skipNames(firstSkips))
			if cp.Err() != nil {
				stats.MarkCanceled()
			}
			if span != nil {
				span.SetAttr("rounds", round-1)
				span.SetAttr("washes", len(washes))
			}
			return &Result{Schedule: cur, Washes: washes, Rounds: round - 1, Stats: stats}, nil
		}
		groups := contam.GroupRequirements(an.Requirements)
		// No merging: each contaminated region gets its own wash (the
		// baseline's lack of resource sharing).
		for _, g := range groups {
			plans, coveredSets, err := washpath.BuildCoverContext(ctx, cur.Chip, g.Targets, washpath.Options{})
			if err != nil {
				return nil, fmt.Errorf("dawo: wash path for %v: %w", g.Targets, err)
			}
			for i, plan := range plans {
				washes = append(washes, replan.WashSpec{
					ID:       fmt.Sprintf("w%d", len(washes)+1),
					Path:     plan.Path,
					Targets:  coveredSets[i],
					Duration: WashDuration(cur, plan.Path.Len()),
					Culprits: g.Culprits,
					Before:   g.Before,
				})
			}
		}
		rp, err := replan.Build(base, washes)
		if err != nil {
			return nil, err
		}
		cur, err = rp.Greedy()
		if err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("dawo: no fixpoint in %d rounds: %w", maxRounds, solve.ErrBudgetExceeded)
}

// analyzeRound runs the conservative necessity analysis for one
// fixpoint round: checkpointed while the budget is live (so a deadline
// aborts mid-analysis within one stride), completion mode once
// cancellation has been observed — the fixpoint needs a complete
// analysis to converge to a clean schedule, and the remaining rounds
// are pure BFS work.
func analyzeRound(ctx context.Context, cp *solve.Checkpoint, s *schedule.Schedule) (*contam.Analysis, error) {
	if !cp.Canceled() {
		an, err := contam.AnalyzeWithPolicyContext(ctx, s, policy)
		if err == nil || !errors.Is(err, solve.ErrBudgetExceeded) {
			return an, err
		}
		cp.Err() // latch the cancellation the aborted analysis observed
	}
	return contam.AnalyzeWithPolicy(s, policy)
}

// skipNames converts the typed skip counters to the string keys the
// solve.Stats trace carries.
func skipNames(skips map[contam.SkipReason]int) map[string]int {
	if skips == nil {
		return nil
	}
	out := make(map[string]int, len(skips))
	for r, n := range skips {
		out[r.String()] = n
	}
	return out
}

// WashDuration computes t(w) = L(l_w)/v_f + t_d (Eq. 17) rounded up to
// whole seconds, at least 1 s.
func WashDuration(s *schedule.Schedule, pathCells int) int {
	c := s.Chip
	secs := 0.0
	if c.FlowVelocityMMs > 0 {
		secs = c.CellLengthOf(pathCells) / c.FlowVelocityMMs
	}
	d := int(math.Ceil(secs + c.DissolutionS))
	if d < 1 {
		d = 1
	}
	return d
}
