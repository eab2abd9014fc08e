package synth

import (
	"context"
	"testing"

	"pathdriverwash/internal/assay"
	"pathdriverwash/internal/grid"
)

func ringAssay(t *testing.T) *assay.Assay {
	t.Helper()
	a := assay.New("ring-fx")
	a.MustAddOp(&assay.Operation{ID: "o1", Kind: assay.Mix, Duration: 2, Output: "f1",
		Reagents: []assay.FluidType{"r1", "r2"}})
	a.MustAddOp(&assay.Operation{ID: "o2", Kind: assay.Heat, Duration: 3, Output: "f2"})
	a.MustAddOp(&assay.Operation{ID: "o3", Kind: assay.Detect, Duration: 2, Output: "f2"})
	a.MustAddEdge("o1", "o2")
	a.MustAddEdge("o2", "o3")
	return a
}

func TestRingTopologySynthesizes(t *testing.T) {
	res, err := Synthesize(context.Background(), ringAssay(t), Config{
		Topology: Ring,
		Devices: []DeviceSpec{
			{Kind: grid.Mixer, Count: 2}, {Kind: grid.Heater, Count: 2},
			{Kind: grid.Detector, Count: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Chip.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(res.Chip.Devices()) != 6 {
		t.Fatalf("devices = %d", len(res.Chip.Devices()))
	}
	t.Logf("ring chip %dx%d makespan %ds\n%s",
		res.Chip.W, res.Chip.H, res.Schedule.Makespan(), res.Chip.Render())
}

func TestRingTopologyOddDeviceCount(t *testing.T) {
	res, err := Synthesize(context.Background(), ringAssay(t), Config{
		Topology: Ring,
		Devices: []DeviceSpec{
			{Kind: grid.Mixer, Count: 1}, {Kind: grid.Heater, Count: 1},
			{Kind: grid.Detector, Count: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTopologyStrings(t *testing.T) {
	if StreetGrid.String() != "street-grid" || Ring.String() != "ring" {
		t.Fatal("topology strings wrong")
	}
}
