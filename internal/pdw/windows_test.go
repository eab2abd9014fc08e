package pdw

import (
	"context"
	"testing"
	"time"

	"pathdriverwash/internal/contam"
	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
	"pathdriverwash/internal/replan"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/solve"
)

func TestCompressBaseNeverSlower(t *testing.T) {
	res := fixture(t)
	ref, err := CompressBase(context.Background(), res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Makespan() > res.Schedule.Makespan() {
		t.Fatalf("compressed base %d slower than greedy %d",
			ref.Makespan(), res.Schedule.Makespan())
	}
	if err := ref.Validate(); err != nil {
		t.Fatalf("compressed base invalid: %v", err)
	}
}

func TestOptimizeWindowsMatchesGreedyOrBetter(t *testing.T) {
	res := fixture(t)
	// Run PDW's wash discovery only (heuristic windows), then compare
	// the MILP result on the same wash set.
	out, err := Optimize(context.Background(), res.Schedule, Options{
		HeuristicWindows: true,
		Budget:           solve.Budget{PerPath: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := replan.Build(res.Schedule, out.Washes)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := plan.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	optimized, _, err := optimizeWindows(context.Background(), plan, greedy, 5*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if optimized.Makespan() > greedy.Makespan() {
		t.Fatalf("MILP %d worse than its incumbent %d",
			optimized.Makespan(), greedy.Makespan())
	}
	if err := optimized.Validate(); err != nil {
		t.Fatalf("MILP schedule invalid: %v", err)
	}
	if err := contam.Verify(optimized); err != nil {
		t.Fatalf("MILP schedule contaminated: %v", err)
	}
}

func TestHazardPair(t *testing.T) {
	wash := &schedule.Task{ID: "w", Kind: schedule.Wash,
		WashTargets: []geom.Point{geom.Pt(2, 2), geom.Pt(3, 2)}}
	contaminator := &schedule.Task{ID: "c", Kind: schedule.Transport,
		ContamCells: []geom.Point{geom.Pt(3, 2)}}
	user := &schedule.Task{ID: "u", Kind: schedule.Transport,
		SensitiveCells: []geom.Point{geom.Pt(2, 2)}}
	unrelated := &schedule.Task{ID: "x", Kind: schedule.Transport,
		ContamCells:    []geom.Point{geom.Pt(9, 9)},
		SensitiveCells: []geom.Point{geom.Pt(8, 8)}}
	otherWash := &schedule.Task{ID: "w2", Kind: schedule.Wash,
		WashTargets: []geom.Point{geom.Pt(2, 2)}}

	if !hazardPair(wash, contaminator) || !hazardPair(contaminator, wash) {
		t.Error("wash vs contaminator on target cell must be a hazard")
	}
	if !hazardPair(wash, user) {
		t.Error("wash vs sensitive user on target cell must be a hazard")
	}
	if hazardPair(wash, unrelated) {
		t.Error("disjoint cells are not a hazard")
	}
	if hazardPair(wash, otherWash) {
		t.Error("two washes are never a hazard")
	}
	if hazardPair(contaminator, user) {
		t.Error("pairs without a wash are not classified here")
	}
}

func TestOptimizeWindowsRejectsEmptyPlan(t *testing.T) {
	c := grid.NewChip("empty", 4, 4)
	if _, err := c.AddPort("in", grid.FlowPort, geom.Pt(0, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddPort("out", grid.WastePort, geom.Pt(3, 3)); err != nil {
		t.Fatal(err)
	}
	s := schedule.New(c, nil)
	_ = s
	// An empty greedy schedule has makespan 0; optimizeWindows must
	// refuse rather than divide the horizon.
	plan := &replan.Plan{}
	if _, _, err := optimizeWindows(context.Background(), plan, schedule.New(c, nil), time.Second, nil); err == nil {
		t.Fatal("expected error for empty plan")
	}
}
