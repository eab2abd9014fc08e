// Package benchmarks defines the eight evaluation workloads of Table II
// — five real-life bioassays (PCR, IVD, ProteinSplit, Kinase act-1/2)
// and three synthetic benchmarks — plus the paper's motivating example
// of Figs. 1(c)/2.
//
// The exact protocols behind Table II are not published; following
// DESIGN.md, each benchmark reproduces the published |O| (operations)
// and |D| (devices) exactly, and |E| is interpreted as the number of
// fluidic tasks (reagent injections + inter-operation transports +
// waste disposals), the only reading consistent with rows like Kinase
// act-1 (|O|=4, |E|=16, impossible for DAG edges). The paper's Table II
// values are attached to each benchmark for EXPERIMENTS.md comparisons.
package benchmarks

import (
	"context"
	"fmt"
	"strings"

	"pathdriverwash/internal/assay"
	"pathdriverwash/internal/grid"
	"pathdriverwash/internal/synth"
)

// PaperMetrics is one method's row slice from Table II.
type PaperMetrics struct {
	NWash  int
	LWash  float64 // mm
	TDelay int     // s
	TAssay int     // s
}

// PaperRow is the published Table II row for one benchmark.
type PaperRow struct {
	Ops, Devices, FluidicTasks int // the |O| / |D| / |E| columns
	DAWO, PDW                  PaperMetrics
}

// Benchmark is one Table II workload.
type Benchmark struct {
	Name   string
	Assay  *assay.Assay
	Config synth.Config
	Paper  PaperRow
}

// Synthesize builds the chip architecture and wash-free scheduling
// under ctx (see synth.Synthesize for the cancellation contract).
func (b *Benchmark) Synthesize(ctx context.Context) (*synth.Result, error) {
	return synth.Synthesize(ctx, b.Assay, b.Config)
}

// All returns the eight Table II benchmarks in paper order.
func All() []*Benchmark {
	return []*Benchmark{
		PCR(), IVD(), ProteinSplit(), KinaseAct1(), KinaseAct2(),
		Synthetic1(), Synthetic2(), Synthetic3(),
	}
}

// ByName looks a benchmark up by its Table II name.
func ByName(name string) (*Benchmark, error) {
	all := All()
	for _, b := range all {
		if b.Name == name {
			return b, nil
		}
	}
	names := make([]string, len(all))
	for i, b := range all {
		names[i] = b.Name
	}
	return nil, fmt.Errorf("benchmarks: unknown benchmark %q (valid: %s)",
		name, strings.Join(names, ", "))
}

func op(id string, k assay.OpKind, dur int, out assay.FluidType, reagents ...assay.FluidType) *assay.Operation {
	return &assay.Operation{ID: id, Kind: k, Duration: dur, Output: out, Reagents: reagents}
}

// PCR is the polymerase chain reaction mixing tree: six sample/reagent
// mixes feeding a final thermocycling step. |O|=7, |D|=5, |E|=15.
func PCR() *Benchmark {
	a := assay.New("PCR")
	a.MustAddOp(op("m1", assay.Mix, 2, "ab", "primer-a", "primer-b")).
		MustAddOp(op("m2", assay.Mix, 2, "cd", "template", "polymerase")).
		MustAddOp(op("m3", assay.Mix, 2, "ef", "dntp", "buffer")).
		MustAddOp(op("m4", assay.Mix, 2, "gh", "mgcl2", "sample")).
		MustAddOp(op("m5", assay.Mix, 3, "abcd")).
		MustAddOp(op("m6", assay.Mix, 3, "efgh")).
		MustAddOp(op("h7", assay.Heat, 6, "pcr-mix"))
	a.MustAddEdge("m1", "m5").MustAddEdge("m2", "m5").
		MustAddEdge("m3", "m6").MustAddEdge("m4", "m6").
		MustAddEdge("m5", "h7").MustAddEdge("m6", "h7")
	return &Benchmark{
		Name:  "PCR",
		Assay: a,
		Config: synth.Config{Devices: []synth.DeviceSpec{
			{Kind: grid.Mixer, Count: 4}, {Kind: grid.Heater, Count: 1},
		}},
		Paper: PaperRow{
			Ops: 7, Devices: 5, FluidicTasks: 15,
			DAWO: PaperMetrics{NWash: 4, LWash: 110, TDelay: 10, TAssay: 33},
			PDW:  PaperMetrics{NWash: 3, LWash: 80, TDelay: 7, TAssay: 30},
		},
	}
}

// IVD is an in-vitro diagnostics panel: four sample/reagent mixes, each
// measured, then pairwise combined and incubated. |O|=12, |D|=9, |E|=24.
func IVD() *Benchmark {
	a := assay.New("IVD")
	a.MustAddOp(op("m1", assay.Mix, 2, "s1", "plasma", "glucose-rgt")).
		MustAddOp(op("m2", assay.Mix, 2, "s2", "plasma2", "lactate-rgt")).
		MustAddOp(op("m3", assay.Mix, 2, "s3", "serum", "pyruvate-rgt")).
		MustAddOp(op("m4", assay.Mix, 2, "s4", "urine", "glutamate-rgt")).
		MustAddOp(op("t1", assay.Detect, 3, "s1", "lumi-agent1")).
		MustAddOp(op("t2", assay.Detect, 3, "s2", "lumi-agent2")).
		MustAddOp(op("t3", assay.Detect, 3, "s3")).
		MustAddOp(op("t4", assay.Detect, 3, "s4")).
		MustAddOp(op("m5", assay.Mix, 2, "s12", "diluent")).
		MustAddOp(op("m6", assay.Mix, 2, "s34", "diluent")).
		MustAddOp(op("h1", assay.Heat, 4, "s12i")).
		MustAddOp(op("h2", assay.Heat, 4, "s34i"))
	a.MustAddEdge("m1", "t1").MustAddEdge("m2", "t2").
		MustAddEdge("m3", "t3").MustAddEdge("m4", "t4").
		MustAddEdge("t1", "m5").MustAddEdge("t2", "m5").
		MustAddEdge("t3", "m6").MustAddEdge("t4", "m6").
		MustAddEdge("m5", "h1").MustAddEdge("m6", "h2")
	return &Benchmark{
		Name:  "IVD",
		Assay: a,
		Config: synth.Config{Devices: []synth.DeviceSpec{
			{Kind: grid.Mixer, Count: 4}, {Kind: grid.Detector, Count: 3},
			{Kind: grid.Heater, Count: 2},
		}},
		Paper: PaperRow{
			Ops: 12, Devices: 9, FluidicTasks: 24,
			DAWO: PaperMetrics{NWash: 10, LWash: 200, TDelay: 21, TAssay: 51},
			PDW:  PaperMetrics{NWash: 6, LWash: 150, TDelay: 16, TAssay: 46},
		},
	}
}

// ProteinSplit is a protein dilution/split tree: an initial mix diluted
// through two levels, measured, with two incubations and a final
// recombination. |O|=14, |D|=11, |E|=27.
func ProteinSplit() *Benchmark {
	a := assay.New("ProteinSplit")
	a.MustAddOp(op("m1", assay.Mix, 2, "p0", "protein", "buffer")).
		MustAddOp(op("d1", assay.Dilute, 2, "p1", "dil-buffer")).
		MustAddOp(op("d2", assay.Dilute, 2, "p2", "dil-buffer")).
		MustAddOp(op("d3", assay.Dilute, 2, "p3", "dil-buffer")).
		MustAddOp(op("d4", assay.Dilute, 2, "p4", "dil-buffer")).
		MustAddOp(op("d5", assay.Dilute, 2, "p5", "dil-buffer")).
		MustAddOp(op("d6", assay.Dilute, 2, "p6", "dil-buffer")).
		MustAddOp(op("t1", assay.Detect, 3, "p3")).
		MustAddOp(op("t2", assay.Detect, 3, "p4", "stain")).
		MustAddOp(op("t3", assay.Detect, 3, "p5")).
		MustAddOp(op("t4", assay.Detect, 3, "p6")).
		MustAddOp(op("h1", assay.Heat, 4, "p3h")).
		MustAddOp(op("h2", assay.Heat, 4, "p4h")).
		MustAddOp(op("m2", assay.Mix, 2, "pf", "fixative"))
	a.MustAddEdge("m1", "d1").MustAddEdge("m1", "d2").
		MustAddEdge("d1", "d3").MustAddEdge("d1", "d4").
		MustAddEdge("d2", "d5").MustAddEdge("d2", "d6").
		MustAddEdge("d3", "t1").MustAddEdge("d4", "t2").
		MustAddEdge("d5", "t3").MustAddEdge("d6", "t4").
		MustAddEdge("t1", "h1").MustAddEdge("t2", "h2").
		MustAddEdge("h1", "m2").MustAddEdge("h2", "m2")
	return &Benchmark{
		Name:  "ProteinSplit",
		Assay: a,
		Config: synth.Config{Devices: []synth.DeviceSpec{
			{Kind: grid.Mixer, Count: 2}, {Kind: grid.Diluter, Count: 4},
			{Kind: grid.Detector, Count: 3}, {Kind: grid.Heater, Count: 2},
		}},
		Paper: PaperRow{
			Ops: 14, Devices: 11, FluidicTasks: 27,
			DAWO: PaperMetrics{NWash: 12, LWash: 220, TDelay: 15, TAssay: 110},
			PDW:  PaperMetrics{NWash: 10, LWash: 160, TDelay: 7, TAssay: 102},
		},
	}
}

// KinaseAct1 is a single kinase activity assay: a many-reagent master
// mix, incubation, quench mix, and luminescence readout. |O|=4, |D|=9,
// |E|=16 (reagent-injection heavy).
func KinaseAct1() *Benchmark {
	a := assay.New("Kinase act-1")
	a.MustAddOp(op("m1", assay.Mix, 3, "kmix",
		"kinase", "substrate", "atp", "kbuffer", "mgcl2", "dtt")).
		MustAddOp(op("h1", assay.Heat, 6, "kinc")).
		MustAddOp(op("m2", assay.Mix, 2, "kq", "quench", "detect-mix", "stabilizer", "carrier")).
		MustAddOp(op("t1", assay.Detect, 4, "kq", "lumi-agent", "enhancer"))
	a.MustAddEdge("m1", "h1").MustAddEdge("h1", "m2").MustAddEdge("m2", "t1")
	return &Benchmark{
		Name:  "Kinase act-1",
		Assay: a,
		Config: synth.Config{Devices: []synth.DeviceSpec{
			{Kind: grid.Mixer, Count: 3}, {Kind: grid.Heater, Count: 2},
			{Kind: grid.Detector, Count: 2}, {Kind: grid.Filter, Count: 1},
			{Kind: grid.Storage, Count: 1},
		}},
		Paper: PaperRow{
			Ops: 4, Devices: 9, FluidicTasks: 16,
			DAWO: PaperMetrics{NWash: 3, LWash: 80, TDelay: 5, TAssay: 38},
			PDW:  PaperMetrics{NWash: 3, LWash: 60, TDelay: 3, TAssay: 36},
		},
	}
}

// KinaseAct2 is three kinase activity assays multiplexed on one chip.
// |O|=12, |D|=9, |E|=48.
func KinaseAct2() *Benchmark {
	a := assay.New("Kinase act-2")
	for i := 1; i <= 3; i++ {
		sfx := fmt.Sprintf("%d", i)
		kin := assay.FluidType("kinase" + sfx)
		a.MustAddOp(op("m1"+sfx, assay.Mix, 3, assay.FluidType("kmix"+sfx),
			kin, "substrate", "atp", "kbuffer", assay.FluidType("cofactor"+sfx), "dtt")).
			MustAddOp(op("h1"+sfx, assay.Heat, 5, assay.FluidType("kinc"+sfx))).
			MustAddOp(op("m2"+sfx, assay.Mix, 2, assay.FluidType("kq"+sfx),
				"quench", "detect-mix", "carrier", assay.FluidType("probe"+sfx))).
			MustAddOp(op("t1"+sfx, assay.Detect, 3, assay.FluidType("kq"+sfx),
				"lumi-agent", assay.FluidType("enhancer"+sfx)))
		a.MustAddEdge("m1"+sfx, "h1"+sfx).
			MustAddEdge("h1"+sfx, "m2"+sfx).
			MustAddEdge("m2"+sfx, "t1"+sfx)
	}
	return &Benchmark{
		Name:  "Kinase act-2",
		Assay: a,
		Config: synth.Config{Devices: []synth.DeviceSpec{
			{Kind: grid.Mixer, Count: 3}, {Kind: grid.Heater, Count: 3},
			{Kind: grid.Detector, Count: 3},
		}},
		Paper: PaperRow{
			Ops: 12, Devices: 9, FluidicTasks: 48,
			DAWO: PaperMetrics{NWash: 17, LWash: 250, TDelay: 33, TAssay: 87},
			PDW:  PaperMetrics{NWash: 13, LWash: 190, TDelay: 25, TAssay: 79},
		},
	}
}
