package corpus

import (
	"context"
	"fmt"
	"time"

	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/contam"
	"pathdriverwash/internal/dawo"
	"pathdriverwash/internal/pdw"
	"pathdriverwash/internal/sim"
	"pathdriverwash/internal/solve"
)

// Level selects how much of the validation pipeline an instance must
// pass before it counts as corpus member.
type Level int

const (
	// LevelWashable — the zero value, and the generator's contract for
	// corpus membership: on top of the structural checks the instance
	// is proven contamination-free washable by BOTH optimizers. A fast
	// heuristic PDW pass (BFS paths, greedy windows) and a DAWO pass
	// must each converge to a schedule that contam.Verify accepts, and
	// the PDW schedule must replay contamination-free through the
	// internal/sim executor. Requiring both keeps the differential
	// oracle total: every corpus instance supports a PDW-vs-DAWO
	// comparison (the two methods issue different wash demands, so
	// solvability under one does not imply the other).
	LevelWashable Level = iota
	// LevelStructural opts out of the washability proof: the assay
	// validates, synthesis succeeds, and the wash-free schedule passes
	// schedule.Validate. Cheap enough for thousand-op instances.
	LevelStructural
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelStructural:
		return "structural"
	case LevelWashable:
		return "washable"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// washableProbe are the solver options of the washability proof: pure
// heuristics (no ILPs) under a hard budget, so validation stays fast
// even when a generated instance is wash-heavy.
func washableProbe() pdw.Options {
	return pdw.Options{
		HeuristicPaths:   true,
		HeuristicWindows: true,
		Budget:           solve.Budget{Total: 30 * time.Second},
	}
}

// Validate checks one generated instance against the given level.
func Validate(ctx context.Context, b *benchmarks.Benchmark, level Level) error {
	if err := b.Assay.Validate(); err != nil {
		return fmt.Errorf("corpus: %s: assay: %w", b.Name, err)
	}
	syn, err := b.Synthesize(ctx)
	if err != nil {
		return fmt.Errorf("corpus: %s: synthesize: %w", b.Name, err)
	}
	if err := syn.Schedule.Validate(); err != nil {
		return fmt.Errorf("corpus: %s: base schedule: %w", b.Name, err)
	}
	if level == LevelStructural {
		return nil
	}
	res, err := pdw.Optimize(ctx, syn.Schedule, washableProbe())
	if err != nil {
		return fmt.Errorf("corpus: %s: not washable: %w", b.Name, err)
	}
	if err := contam.VerifyContext(ctx, res.Schedule); err != nil {
		return fmt.Errorf("corpus: %s: washed schedule still contaminated: %w", b.Name, err)
	}
	rep := sim.Run(res.Schedule)
	if vs := rep.ByClass(sim.Contamination); len(vs) > 0 {
		return fmt.Errorf("corpus: %s: sim replay found contamination: %v", b.Name, vs[0])
	}
	dres, err := dawo.Optimize(ctx, syn.Schedule, dawo.Options{
		Budget: solve.Budget{Total: 30 * time.Second},
	})
	if err != nil {
		return fmt.Errorf("corpus: %s: not washable under dawo: %w", b.Name, err)
	}
	if err := contam.VerifyContext(ctx, dres.Schedule); err != nil {
		return fmt.Errorf("corpus: %s: dawo schedule still contaminated: %w", b.Name, err)
	}
	return nil
}

// GenerateValidated generates one instance and validates it before
// returning — the only constructor sweeps use, so no unvalidated
// instance ever enters a corpus.
func GenerateValidated(ctx context.Context, p Params, level Level) (*benchmarks.Benchmark, error) {
	b, err := Generate(ctx, p)
	if err != nil {
		return nil, err
	}
	if err := Validate(ctx, b, level); err != nil {
		return nil, err
	}
	return b, nil
}
