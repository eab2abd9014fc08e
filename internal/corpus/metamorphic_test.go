package corpus

import (
	"context"
	"testing"

	"pathdriverwash/internal/assay"
)

func TestRelabelFluidsBijection(t *testing.T) {
	b := mustGen(t, Params{Seed: 31, Ops: 15, Shape: Layered, Density: 0.4})
	r, err := RelabelFluids(b.Assay, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("relabeled assay invalid: %v", err)
	}
	if got, want := countFluids(r), countFluids(b.Assay); got != want {
		t.Errorf("relabeling changed distinct fluid count: %d != %d", got, want)
	}
	// A low-density instance reuses fluids, so at least one rename must
	// have happened (all fresh names are minted as mf<i>).
	if countFluids(b.Assay) > 0 && fluidSet(r)["mf0"] == false {
		t.Error("relabeling minted no mf* fluid names")
	}
	// The distinguished waste type is never renamed.
	if fluidSet(r)[string(assay.Waste)] != fluidSet(b.Assay)[string(assay.Waste)] {
		t.Error("relabeling changed the Waste fluid")
	}
	// Deterministic: same seed, same result.
	r2, err := RelabelFluids(b.Assay, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range r.Ops() {
		if o2 := r2.Op(o.ID); o2 == nil || o2.Output != o.Output {
			t.Fatalf("relabeling not deterministic at op %s", o.ID)
		}
	}
}

func TestPermuteOpIDs(t *testing.T) {
	b := mustGen(t, Params{Seed: 41, Ops: 12, Shape: Diamond, Density: 0.6})
	syn, err := b.Synthesize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	base := syn.Schedule
	p, err := PermuteOpIDs(base, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("permuted schedule invalid: %v", err)
	}
	if got, want := len(p.Tasks()), len(base.Tasks()); got != want {
		t.Fatalf("task count changed: %d != %d", got, want)
	}
	// The operation-ID set is unchanged, only the assignment moved.
	if got, want := idSet(p.Assay), idSet(base.Assay); !sameSet(got, want) {
		t.Errorf("op ID set changed: %v != %v", got, want)
	}
	// Task IDs stay consistent with the renamed op references: every
	// operation task is findable under the systematic name, and the
	// task's physical placement is untouched.
	moved := false
	for _, o := range p.Assay.Ops() {
		task := p.Task("op-" + o.ID)
		if task == nil {
			t.Fatalf("no task op-%s after permutation", o.ID)
		}
		if task.OpID != o.ID {
			t.Errorf("task op-%s carries OpID %s", o.ID, task.OpID)
		}
	}
	for i, task := range base.Tasks() {
		pt := p.Tasks()[i]
		if pt.Kind != task.Kind || pt.Start != task.Start || pt.End != task.End ||
			pt.Path.Len() != task.Path.Len() {
			t.Errorf("task %d: physical fields changed (%s -> %s)", i, task.ID, pt.ID)
		}
		if pt.ID != task.ID {
			moved = true
		}
	}
	if !moved {
		t.Error("permutation with 12 ops renamed nothing")
	}
}

func TestPermuteOpIDsDeterministic(t *testing.T) {
	b := mustGen(t, Params{Seed: 43, Ops: 10, Shape: Panel, Density: 0.5})
	syn, err := b.Synthesize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p1, err := PermuteOpIDs(syn.Schedule, 3)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PermuteOpIDs(syn.Schedule, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, t1 := range p1.Tasks() {
		if t2 := p2.Tasks()[i]; t1.ID != t2.ID || t1.OpID != t2.OpID {
			t.Fatalf("permutation not deterministic at task %d: %s vs %s", i, t1.ID, t2.ID)
		}
	}
}

func countFluids(a *assay.Assay) int { return len(fluidSet(a)) }

func fluidSet(a *assay.Assay) map[string]bool {
	s := map[string]bool{}
	for _, o := range a.Ops() {
		s[string(o.Output)] = true
		for _, r := range o.Reagents {
			s[string(r)] = true
		}
	}
	return s
}

func idSet(a *assay.Assay) map[string]bool {
	s := map[string]bool{}
	for _, o := range a.Ops() {
		s[o.ID] = true
	}
	return s
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
