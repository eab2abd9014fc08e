package main

import (
	"fmt"
	"math"
	"time"

	"pathdriverwash/internal/contam"
	"pathdriverwash/internal/dawo"
	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/scheduleio"
	"pathdriverwash/internal/service"
	"pathdriverwash/internal/sim"
)

// simTally accumulates the sim replays of a run.
type simTally struct {
	runs, violations, holding int
	busy                      time.Duration
}

// checkSchedule is the output check every answer passes: the schedule
// validates, contam.Verify finds it contamination-free, and the sim
// replay reports no violation other than Holding (the hazard the
// paper's constraint set does not model).
func checkSchedule(s *schedule.Schedule, tally *simTally) error {
	if s == nil {
		return fmt.Errorf("no schedule")
	}
	if err := s.Validate(); err != nil {
		return err
	}
	if err := contam.Verify(s); err != nil {
		return err
	}
	t0 := time.Now()
	rep := sim.Run(s)
	tally.busy += time.Since(t0)
	tally.runs++
	holding := len(rep.ByClass(sim.Holding))
	tally.violations += len(rep.Violations)
	tally.holding += holding
	if n := len(rep.Violations) - holding; n > 0 {
		return fmt.Errorf("sim replay: %d non-holding violations, first %v", n, rep.Violations[0])
	}
	return nil
}

// checkMetrics compares reported quality figures against the ones
// recomputed from the schedule.
func checkMetrics(s *schedule.Schedule, nWash int, lWash float64, tAssay int) error {
	m := s.ComputeMetrics(nil)
	if m.NWash != nWash || math.Abs(m.LWashMM-lWash) > 1e-6 || m.TAssay != tAssay {
		return fmt.Errorf("reported N/L/T %d/%.3f/%d, schedule gives %d/%.3f/%d",
			nWash, lWash, tAssay, m.NWash, m.LWashMM, m.TAssay)
	}
	return nil
}

// checkWire re-verifies one pdw.v1 response: it rebuilds the wire
// schedule against base, the wash-free schedule synthesized from the
// same request, and runs the full output check on the result.
func checkWire(resp *service.SolveResponse, base *schedule.Schedule, tally *simTally) error {
	if resp.Schema != service.SchemaV1 {
		return fmt.Errorf("schema %q", resp.Schema)
	}
	if resp.Schedule == nil {
		return fmt.Errorf("response carries no schedule")
	}
	s, err := fromDocument(resp.Schedule, base)
	if err != nil {
		return err
	}
	if s.Makespan() != resp.Schedule.Makespan {
		return fmt.Errorf("makespan %d, document says %d", s.Makespan(), resp.Schedule.Makespan)
	}
	if err := checkMetrics(s, resp.NWash, resp.LWashMM, resp.TAssayS); err != nil {
		return err
	}
	return checkSchedule(s, tally)
}

// fromDocument rebuilds a schedule from its wire document. The document
// carries task windows, paths and wash targets but not the residue
// cells the checks need, so every non-wash task must match a task of
// base (same kind and path) and takes its cells from there; wash tasks
// are built the way replan builds them.
func fromDocument(doc *scheduleio.Document, base *schedule.Schedule) (*schedule.Schedule, error) {
	c := base.Chip
	if doc.Chip.Name != c.Name || doc.Chip.Width != c.W || doc.Chip.Height != c.H {
		return nil, fmt.Errorf("chip %s %dx%d, expected %s %dx%d",
			doc.Chip.Name, doc.Chip.Width, doc.Chip.Height, c.Name, c.W, c.H)
	}
	out := schedule.New(c, base.Assay)
	seen := 0
	for _, ti := range doc.Tasks {
		path := grid.NewPath(points(ti.Path)...)
		var t schedule.Task
		if bt := base.Task(ti.ID); bt != nil {
			if bt.Kind.String() != ti.Kind {
				return nil, fmt.Errorf("task %s: kind %s, base has %s", ti.ID, ti.Kind, bt.Kind)
			}
			if !samePath(bt.Path, path) {
				return nil, fmt.Errorf("task %s: path differs from the synthesized one", ti.ID)
			}
			t = *bt
			t.Integrated, t.IntegratedInto = ti.Integrated, ti.IntegratedInto
			seen++
		} else {
			if ti.Kind != schedule.Wash.String() {
				return nil, fmt.Errorf("task %s: unknown %s task", ti.ID, ti.Kind)
			}
			t = schedule.Task{ID: ti.ID, Kind: schedule.Wash, Path: path, Fluid: "buffer",
				MinDuration: dawo.WashDuration(base, path.Len()), WashTargets: points(ti.WashTargets)}
		}
		t.Start, t.End = ti.Start, ti.End
		if err := out.Add(&t); err != nil {
			return nil, err
		}
	}
	if seen != len(base.Tasks()) {
		return nil, fmt.Errorf("document has %d of the %d synthesized tasks", seen, len(base.Tasks()))
	}
	return out, nil
}

func points(cells [][2]int) []geom.Point {
	out := make([]geom.Point, len(cells))
	for i, c := range cells {
		out[i] = geom.Pt(c[0], c[1])
	}
	return out
}

func samePath(a, b grid.Path) bool {
	if len(a.Cells) != len(b.Cells) {
		return false
	}
	for i := range a.Cells {
		if a.Cells[i] != b.Cells[i] {
			return false
		}
	}
	return true
}
