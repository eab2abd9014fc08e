package benchmarks

import (
	"context"
	"testing"

	"pathdriverwash/internal/contam"
)

func TestTableIIShapeCounts(t *testing.T) {
	for _, b := range All() {
		ops, _, tasks := b.Assay.Stats()
		if ops != b.Paper.Ops {
			t.Errorf("%s: |O| = %d want %d", b.Name, ops, b.Paper.Ops)
		}
		devices := 0
		for _, d := range b.Config.Devices {
			devices += d.Count
		}
		if devices != b.Paper.Devices {
			t.Errorf("%s: |D| = %d want %d", b.Name, devices, b.Paper.Devices)
		}
		if tasks != b.Paper.FluidicTasks {
			t.Errorf("%s: |E| (fluidic tasks) = %d want %d", b.Name, tasks, b.Paper.FluidicTasks)
		}
	}
}

func TestAllValidate(t *testing.T) {
	for _, b := range All() {
		if err := b.Assay.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
}

func TestAllSynthesize(t *testing.T) {
	for _, b := range All() {
		res, err := b.Synthesize(context.Background())
		if err != nil {
			t.Errorf("%s: synthesize: %v", b.Name, err)
			continue
		}
		if err := res.Chip.Validate(); err != nil {
			t.Errorf("%s: chip: %v", b.Name, err)
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Errorf("%s: schedule: %v", b.Name, err)
		}
		an, err := contam.Analyze(res.Schedule)
		if err != nil {
			t.Errorf("%s: analyze: %v", b.Name, err)
			continue
		}
		t.Logf("%s: makespan=%ds tasks=%d contamination-events=%d requirements=%d",
			b.Name, res.Schedule.Makespan(), len(res.Schedule.Tasks()),
			len(an.Events), len(an.Requirements))
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("PCR")
	if err != nil || b.Name != "PCR" {
		t.Fatalf("ByName(PCR) = %v, %v", b, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name must fail")
	}
}

// TestByNameErrorListsValidNames pins the unknown-name message: it
// must quote the bad name and enumerate every valid one in Table II
// order, so a typo on the pdwbench command line is self-correcting.
func TestByNameErrorListsValidNames(t *testing.T) {
	_, err := ByName("pcr")
	if err == nil {
		t.Fatal("lookup is not case-sensitive?")
	}
	const want = `benchmarks: unknown benchmark "pcr" (valid: PCR, IVD, ProteinSplit, ` +
		`Kinase act-1, Kinase act-2, Synthetic1, Synthetic2, Synthetic3)`
	if got := err.Error(); got != want {
		t.Errorf("error message drifted:\n got %q\nwant %q", got, want)
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a1, a2 := Synthetic1().Assay, Synthetic1().Assay
	o1, _ := a1.TopoOrder()
	o2, _ := a2.TopoOrder()
	if len(o1) != len(o2) {
		t.Fatal("sizes differ")
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatal("synthetic generation nondeterministic")
		}
	}
	e1, e2 := a1.Edges(), a2.Edges()
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("edges differ")
		}
	}
}

func TestSyntheticsDiffer(t *testing.T) {
	s1, s2 := Synthetic1().Assay, Synthetic2().Assay
	if len(s1.Ops()) == len(s2.Ops()) {
		t.Fatal("synthetic sizes should differ")
	}
}

func TestPaperRowsPopulated(t *testing.T) {
	for _, b := range All() {
		if b.Paper.DAWO.TAssay == 0 || b.Paper.PDW.TAssay == 0 {
			t.Errorf("%s: missing paper metrics", b.Name)
		}
		if b.Paper.PDW.NWash > b.Paper.DAWO.NWash {
			t.Errorf("%s: paper has PDW washing more than DAWO?", b.Name)
		}
	}
}

func TestMotivatingExample(t *testing.T) {
	a, chip, err := Motivating()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Ops()) != 7 {
		t.Fatalf("ops = %d want 7", len(a.Ops()))
	}
	if len(chip.Devices()) != 5 || len(chip.FlowPorts()) != 4 || len(chip.WastePorts()) != 4 {
		t.Fatalf("chip shape wrong: %d devices %d/%d ports",
			len(chip.Devices()), len(chip.FlowPorts()), len(chip.WastePorts()))
	}
}
