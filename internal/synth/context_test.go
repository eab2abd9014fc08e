package synth

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"pathdriverwash/internal/assay"
	"pathdriverwash/internal/grid"
	"pathdriverwash/internal/solve"
)

func mixAssay(t *testing.T) *assay.Assay {
	t.Helper()
	a := assay.New("ctx-fx")
	a.MustAddOp(&assay.Operation{ID: "o1", Kind: assay.Mix, Duration: 2, Output: "f1",
		Reagents: []assay.FluidType{"r1", "r2"}})
	return a
}

func TestSynthesizeContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Synthesize(ctx, mixAssay(t), Config{})
	if !errors.Is(err, solve.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

// errAfterCtx reports the context as live for the first N Err() polls
// and canceled afterward, simulating a deadline expiring mid-run
// without any wall-clock dependence.
type errAfterCtx struct {
	context.Context
	polls, after int
}

func (c *errAfterCtx) Err() error {
	c.polls++
	if c.polls > c.after {
		return context.Canceled
	}
	return nil
}

// TestSynthesizeContextMidRunAborts pins the checkpointed contract: a
// cancellation arriving while the construction loops are running
// aborts with ErrBudgetExceeded instead of letting synthesis finish.
func TestSynthesizeContextMidRunAborts(t *testing.T) {
	a := assay.New("ctx-midrun")
	prev := ""
	for i := 1; i <= 40; i++ {
		op := &assay.Operation{ID: fmt.Sprintf("o%d", i), Kind: assay.Mix, Duration: 1,
			Output:   assay.FluidType(fmt.Sprintf("f%d", i)),
			Reagents: []assay.FluidType{assay.FluidType(fmt.Sprintf("r%d", i))}}
		a.MustAddOp(op)
		if prev != "" {
			if err := a.AddEdge(prev, op.ID); err != nil {
				t.Fatal(err)
			}
		}
		prev = op.ID
	}
	// The entry check is poll 1; the first checkpoint stride lands the
	// cancellation inside bind/buildSchedule.
	ctx := &errAfterCtx{Context: context.Background(), after: 1}
	_, err := Synthesize(ctx, a, Config{})
	if !errors.Is(err, solve.ErrBudgetExceeded) {
		t.Fatalf("mid-run cancel err = %v, want ErrBudgetExceeded", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel err = %v, want context.Canceled in the chain", err)
	}
}

func TestSynthesizeContextCompletes(t *testing.T) {
	res, err := Synthesize(context.Background(), mixAssay(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule == nil || res.Chip == nil {
		t.Fatal("incomplete result")
	}
}

func TestInvalidAssayIsSentinel(t *testing.T) {
	_, err := Synthesize(context.Background(), assay.New("empty"), Config{})
	if !errors.Is(err, solve.ErrInvalidAssay) {
		t.Fatalf("err = %v, want ErrInvalidAssay", err)
	}
}

func TestMissingDeviceIsInfeasible(t *testing.T) {
	_, err := Synthesize(context.Background(), mixAssay(t), Config{
		Devices: []DeviceSpec{{Kind: grid.Heater, Count: 1}},
	})
	if !errors.Is(err, solve.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible (no mixer in the library)", err)
	}
}
