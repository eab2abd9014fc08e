// Package demandwash implements the demand-driven wash heuristic the
// paper discusses as related work ([9], Minhass et al.): wash operations
// are postponed as long as possible, executing only immediately before
// the contaminated resource is reused. As the paper notes, this makes
// conflicts between washes and fluid transportation frequent — every
// wash sits on the critical path right in front of its user — "leading
// to serious delay in assay completion". The implementation shares
// DAWO's conservative contamination judgement and BFS paths; the only
// difference is the postponement: each wash additionally waits for all
// of its user's other inputs, so it runs back-to-back with the reuse.
//
// It exists as a second comparison point and as the subject of the
// postponement ablation bench.
package demandwash

import (
	"context"
	"errors"
	"fmt"

	"pathdriverwash/internal/contam"
	"pathdriverwash/internal/dawo"
	"pathdriverwash/internal/replan"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/solve"
	"pathdriverwash/internal/washpath"
)

// Options tunes the heuristic.
type Options struct {
	// MaxRounds caps wash-insertion fixpoint rounds (default 60).
	MaxRounds int
	// Budget bounds the run; only Budget.Total applies (the heuristic
	// solves no inner ILPs). Expiry degrades gracefully: the remaining
	// fixpoint rounds complete and the clean schedule is returned with
	// Stats.Canceled set.
	Budget solve.Budget
}

// Result is the heuristic's output.
type Result struct {
	Schedule *schedule.Schedule
	Washes   []replan.WashSpec
	Rounds   int
	// Stats carries the Canceled flag when the budget expired mid-run.
	Stats *solve.Stats
}

var policy = contam.Policy{IgnoreFluidTypes: true}

// Optimize inserts maximally postponed washes into the base schedule
// under ctx. Like DAWO, the fixpoint must reach a contamination-free
// schedule to return anything usable, so a canceled ctx or an expired
// Budget.Total does not abort: the remaining rounds complete (pure BFS
// work) and the clean schedule is returned with Stats.Canceled set.
func Optimize(ctx context.Context, base *schedule.Schedule, opts Options) (*Result, error) {
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 60
	}
	ctx, stop := opts.Budget.Context(ctx)
	defer stop()
	defer func() { solve.ObserveOverrun(ctx) }()
	cp := solve.NewCheckpoint(ctx)

	cur := base
	var washes []replan.WashSpec
	for round := 1; round <= maxRounds; round++ {
		an, err := analyzeRound(ctx, &cp, cur)
		if err != nil {
			return nil, err
		}
		if len(an.Requirements) == 0 {
			if err := cur.Validate(); err != nil {
				return nil, fmt.Errorf("demandwash: final schedule invalid: %w", err)
			}
			stats := &solve.Stats{}
			if cp.Err() != nil {
				stats.MarkCanceled()
			}
			return &Result{Schedule: cur, Washes: washes, Rounds: round - 1, Stats: stats}, nil
		}
		groups := contam.GroupRequirements(an.Requirements)
		for _, g := range groups {
			plans, coveredSets, err := washpath.BuildCoverContext(ctx, cur.Chip, g.Targets, washpath.Options{})
			if err != nil {
				return nil, fmt.Errorf("demandwash: wash path for %v: %w", g.Targets, err)
			}
			for i, plan := range plans {
				spec := replan.WashSpec{
					ID:       fmt.Sprintf("w%d", len(washes)+1),
					Path:     plan.Path,
					Targets:  coveredSets[i],
					Duration: dawo.WashDuration(cur, plan.Path.Len()),
					Culprits: postponedCulprits(base, g),
					Before:   g.Before,
				}
				washes = append(washes, spec)
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
	return nil, fmt.Errorf("demandwash: no fixpoint in %d rounds: %w", maxRounds, solve.ErrBudgetExceeded)
}

// analyzeRound mirrors dawo's round analysis: checkpointed while the
// budget is live, completion mode (plain AnalyzeWithPolicy) once
// cancellation has been observed, because the fixpoint needs a complete
// analysis to converge.
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

// postponedCulprits extends the group's culprits with every other
// predecessor of each user task, so the greedy placement can only slot
// the wash immediately before the reuse — the defining postponement of
// the demand-driven heuristic.
func postponedCulprits(base *schedule.Schedule, g contam.Group) []string {
	out := append([]string(nil), g.Culprits...)
	// A merged group may serve several users; a postponement gate must
	// finish before every one of them (base times), or ordering the
	// wash after it would contradict a wash-before-user edge.
	minUserStart := 1 << 30
	for _, u := range g.Before {
		if ut := base.Task(u); ut != nil && ut.Start < minUserStart {
			minUserStart = ut.Start
		}
	}
	add := func(id string) {
		if id == "" {
			return
		}
		gate := base.Task(id)
		if gate == nil || gate.End > minUserStart {
			return
		}
		for _, u := range g.Before {
			if id == u {
				return // never order a wash after its own user
			}
		}
		for _, c := range out {
			if c == id {
				return
			}
		}
		out = append(out, id)
	}
	for _, userID := range g.Before {
		user := base.Task(userID)
		if user == nil {
			continue
		}
		switch user.Kind {
		case schedule.Operation:
			// Wait for the op's transports and removals.
			for _, t := range base.Tasks() {
				if t.EdgeTo == user.OpID &&
					(t.Kind == schedule.Transport || t.Kind == schedule.Removal) {
					add(t.ID)
				}
			}
		case schedule.Transport:
			if user.EdgeFrom != "" {
				add("op-" + user.EdgeFrom) // wait for the producing op
			}
		}
	}
	return out
}
