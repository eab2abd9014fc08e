package assayio

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/synth"
)

const sample = `{
  "name": "json-assay",
  "operations": [
    {"id": "o1", "kind": "mix", "duration": 2, "output": "f1", "reagents": ["r1", "r2"]},
    {"id": "o2", "kind": "heat", "duration": 3, "output": "f2"}
  ],
  "edges": [{"from": "o1", "to": "o2"}],
  "devices": [{"kind": "mixer", "count": 1}, {"kind": "heater", "count": 1}],
  "flow_ports": 3,
  "waste_ports": 2,
  "flow_velocity_mm_s": 5
}`

func TestDecode(t *testing.T) {
	a, cfg, err := Decode(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "json-assay" || len(a.Ops()) != 2 || len(a.Edges()) != 1 {
		t.Fatalf("assay = %+v", a)
	}
	if len(cfg.Devices) != 2 || cfg.FlowPorts != 3 || cfg.WastePorts != 2 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.FlowVelocityMMs != 5 {
		t.Fatalf("velocity = %v", cfg.FlowVelocityMMs)
	}
	op := a.Op("o1")
	if op == nil || len(op.Reagents) != 2 || op.Duration != 2 {
		t.Fatalf("op = %+v", op)
	}
}

func TestDecodedAssaySynthesizes(t *testing.T) {
	a, cfg, err := Decode(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	res, err := synth.Synthesize(context.Background(), a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chip.FlowVelocityMMs != 5 {
		t.Errorf("velocity not applied: %v", res.Chip.FlowVelocityMMs)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":      `{`,
		"unknown field": `{"name":"x","bogus":1}`,
		"missing name":  `{"operations":[{"id":"o1","kind":"mix","duration":1,"output":"f","reagents":["r"]}]}`,
		"bad op":        `{"name":"x","operations":[{"id":"","kind":"mix","duration":1,"output":"f"}]}`,
		"bad edge":      `{"name":"x","operations":[{"id":"o1","kind":"mix","duration":1,"output":"f","reagents":["r"]}],"edges":[{"from":"o1","to":"zz"}]}`,
		"cycle": `{"name":"x","operations":[
			{"id":"a","kind":"mix","duration":1,"output":"f","reagents":["r"]},
			{"id":"b","kind":"mix","duration":1,"output":"g","reagents":["r"]}],
			"edges":[{"from":"a","to":"b"},{"from":"b","to":"a"}]}`,
	}
	for name, doc := range cases {
		if _, _, err := Decode(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	b, err := benchmarks.ByName("PCR")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, b.Assay, b.Config); err != nil {
		t.Fatal(err)
	}
	a2, cfg2, err := Decode(&buf)
	if err != nil {
		t.Fatalf("round trip decode: %v", err)
	}
	if len(a2.Ops()) != len(b.Assay.Ops()) || len(a2.Edges()) != len(b.Assay.Edges()) {
		t.Fatal("round trip lost structure")
	}
	if len(cfg2.Devices) != len(b.Config.Devices) {
		t.Fatal("round trip lost devices")
	}
	o1, _, t1 := b.Assay.Stats()
	o2, _, t2 := a2.Stats()
	if o1 != o2 || t1 != t2 {
		t.Fatalf("stats differ: %d/%d vs %d/%d", o1, t1, o2, t2)
	}
}
