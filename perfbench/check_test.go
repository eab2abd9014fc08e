package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"pathdriverwash/internal/scheduleio"
	"pathdriverwash/internal/service"
	"pathdriverwash/pkg/pathdriver"
)

// wireAnswer solves one small corpus assay in-process and returns its
// wire response and the wash-free base the check rebuilds against.
func wireAnswer(t *testing.T) (*service.SolveResponse, *pathdriver.Schedule) {
	t.Helper()
	ctx := context.Background()
	benches, err := ladder(ctx, 3, []rung{{ops: 6, n: 1}})
	if err != nil {
		t.Fatal(err)
	}
	body, err := requestBody(benches[0])
	if err != nil {
		t.Fatal(err)
	}
	code, out := post(service.New(service.Config{Workers: 1}).Handler(), body)
	if code != 200 {
		t.Fatalf("status %d: %s", code, out)
	}
	var resp service.SolveResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.NWash == 0 {
		t.Fatal("test assay needs washes")
	}
	base, err := synthesizeBody(ctx, body)
	if err != nil {
		t.Fatal(err)
	}
	return &resp, base
}

func TestCheckWireAcceptsServedSchedule(t *testing.T) {
	resp, base := wireAnswer(t)
	var tally simTally
	if err := checkWire(resp, base, &tally); err != nil {
		t.Fatal(err)
	}
	if tally.runs != 1 {
		t.Fatalf("sim ran %d times", tally.runs)
	}
}

func TestCheckWireRejectsTamperedSchedules(t *testing.T) {
	for name, tamper := range map[string]func(*service.SolveResponse){
		"wash dropped": func(r *service.SolveResponse) {
			var kept []scheduleio.TaskInfo
			for _, ti := range r.Schedule.Tasks {
				if ti.Kind != "wash" {
					kept = append(kept, ti)
				}
			}
			r.Schedule.Tasks = kept
			r.NWash, r.LWashMM = 0, 0
		},
		"wash shortened": func(r *service.SolveResponse) {
			for i, ti := range r.Schedule.Tasks {
				if ti.Kind == "wash" {
					r.Schedule.Tasks[i].End = ti.Start
					return
				}
			}
		},
		"task missing": func(r *service.SolveResponse) {
			r.Schedule.Tasks = r.Schedule.Tasks[1:]
		},
		"metrics misreported": func(r *service.SolveResponse) { r.NWash++ },
		"schema":              func(r *service.SolveResponse) { r.Schema = "pdw.v0" },
	} {
		t.Run(name, func(t *testing.T) {
			resp, base := wireAnswer(t)
			tamper(resp)
			if err := checkWire(resp, base, &simTally{}); err == nil {
				t.Fatal("tampered response passed the check")
			}
		})
	}
}

// TestMetricTablesMatchBenchmarkFile keeps the metric names and units
// the driver prints in step with BENCHMARK.json.
func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var file struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []metric, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: driver has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: driver %s [%s], BENCHMARK.json %s [%s]",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	compare("end_to_end", endToEnd, file.EndToEnd)
	compare("per_layer", perLayer, file.PerLayer)
}
