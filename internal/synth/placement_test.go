package synth

import (
	"context"
	"testing"

	"pathdriverwash/internal/assay"
	"pathdriverwash/internal/grid"
)

// placementAssay has a hot pair (a <-> b, 4 edges) and a cold device, so
// optimized placement should pull a and b's devices together.
func placementAssay(t *testing.T) *assay.Assay {
	t.Helper()
	a := assay.New("pl")
	a.MustAddOp(&assay.Operation{ID: "a1", Kind: assay.Mix, Duration: 2, Output: "f1",
		Reagents: []assay.FluidType{"r1"}})
	a.MustAddOp(&assay.Operation{ID: "b1", Kind: assay.Heat, Duration: 2, Output: "f2"})
	a.MustAddOp(&assay.Operation{ID: "a2", Kind: assay.Mix, Duration: 2, Output: "f3"})
	a.MustAddOp(&assay.Operation{ID: "b2", Kind: assay.Heat, Duration: 2, Output: "f4"})
	a.MustAddOp(&assay.Operation{ID: "c1", Kind: assay.Detect, Duration: 2, Output: "f4"})
	a.MustAddEdge("a1", "b1")
	a.MustAddEdge("b1", "a2")
	a.MustAddEdge("a2", "b2")
	a.MustAddEdge("b2", "c1")
	return a
}

func placementSpecs() []DeviceSpec {
	return []DeviceSpec{
		{Kind: grid.Mixer, Count: 2}, {Kind: grid.Heater, Count: 2},
		{Kind: grid.Detector, Count: 2}, {Kind: grid.Filter, Count: 3},
	}
}

func TestOptimizePlacementValidAndComplete(t *testing.T) {
	a := placementAssay(t)
	res, err := Synthesize(context.Background(), a, Config{Devices: placementSpecs(), OptimizePlacement: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Chip.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(res.Chip.Devices()) != 9 {
		t.Fatalf("devices = %d", len(res.Chip.Devices()))
	}
	// Every device kind survives with its ID set.
	for _, id := range []string{"mixer1", "heater1", "detector1", "filter3"} {
		if res.Chip.Device(id) == nil {
			t.Errorf("device %s lost in placement", id)
		}
	}
}

func TestOptimizePlacementReducesWireLength(t *testing.T) {
	a := placementAssay(t)
	plain, err := Synthesize(context.Background(), a, Config{Devices: placementSpecs()})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Synthesize(context.Background(), a, Config{Devices: placementSpecs(), OptimizePlacement: true})
	if err != nil {
		t.Fatal(err)
	}
	dist := func(r *Result) int {
		total := 0
		for _, e := range a.Edges() {
			from, to := r.Binding[e.From], r.Binding[e.To]
			if from == nil || to == nil || from == to {
				continue
			}
			total += from.Center().Manhattan(to.Center())
		}
		return total
	}
	if dist(opt) > dist(plain) {
		t.Fatalf("placement increased communication distance: %d > %d", dist(opt), dist(plain))
	}
	t.Logf("communication distance: plain %d, optimized %d", dist(plain), dist(opt))
}

func TestOptimizePlacementDeterministic(t *testing.T) {
	a := placementAssay(t)
	r1, err := Synthesize(context.Background(), a, Config{Devices: placementSpecs(), OptimizePlacement: true})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Synthesize(context.Background(), a, Config{Devices: placementSpecs(), OptimizePlacement: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range r1.Chip.Devices() {
		d2 := r2.Chip.Device(d.ID)
		if d2 == nil || d2.Area != d.Area {
			t.Fatalf("placement nondeterministic for %s", d.ID)
		}
	}
}

func TestOptimizePlacementSingleDevice(t *testing.T) {
	a := assay.New("one")
	a.MustAddOp(&assay.Operation{ID: "o1", Kind: assay.Mix, Duration: 1, Output: "f",
		Reagents: []assay.FluidType{"r"}})
	res, err := Synthesize(context.Background(), a, Config{OptimizePlacement: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
}
