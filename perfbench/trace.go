package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one layer-boundary interval of the traced run. Spans the
// benchmark times itself wrap a call into a public function; derived
// spans lay out a layer's own phase or model timings (solve.Stats)
// inside the call that reported them.
type span struct {
	ID      int            `json:"id"`
	Parent  int            `json:"parent"` // 0: a root
	Name    string         `json:"name"`
	Start   float64        `json:"start_s"`
	Dur     float64        `json:"dur_s"`
	Derived bool           `json:"derived,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// tracer keeps the spans of one traced run in memory.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(t.t0).Seconds()})
	return len(t.spans)
}

// end closes span id, attaches attribute pairs (key, value, ...), and
// returns the span's duration in seconds.
func (t *tracer) end(id int, kv ...any) float64 {
	s := &t.spans[id-1]
	s.Dur = time.Since(t.t0).Seconds() - s.Start
	if len(kv) > 0 && s.Attrs == nil {
		s.Attrs = map[string]any{}
	}
	for i := 0; i+1 < len(kv); i += 2 {
		s.Attrs[kv[i].(string)] = kv[i+1]
	}
	return s.Dur
}

// derive adds a derived span of length dur starting at offset start
// (seconds since the tracer's origin) and returns its id.
func (t *tracer) derive(parent int, name string, start, dur float64) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start, Dur: dur, Derived: true})
	return len(t.spans)
}

// get returns span id.
func (t *tracer) get(id int) span { return t.spans[id-1] }

// selfTimes returns each span's duration minus the part of its interval
// its children cover.
func (t *tracer) selfTimes() []float64 {
	kids := map[int][]span{}
	for _, s := range t.spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := make([]float64, len(t.spans))
	for i, s := range t.spans {
		out[i] = s.Dur - covered(kids[s.ID], s.Start, s.Start+s.Dur)
	}
	return out
}

// covered is the measure of the union of the spans' intervals, clipped
// to [lo, hi].
func covered(spans []span, lo, hi float64) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.Start+s.Dur, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, end := 0.0, lo
	for _, v := range ivs {
		a := max(v.a, end)
		if v.b > a {
			total += v.b - a
			end = v.b
		}
	}
	return total
}

// selfByName sums self time per span name over the spans whose
// ancestry includes root (root itself included; 0 means all spans).
func (t *tracer) selfByName(root int) map[string]float64 {
	self := t.selfTimes()
	out := map[string]float64{}
	for i, s := range t.spans {
		if root == 0 || t.under(s.ID, root) {
			out[s.Name] += self[i]
		}
	}
	return out
}

// under reports whether span id is root or one of its descendants.
func (t *tracer) under(id, root int) bool {
	for id != 0 {
		if id == root {
			return true
		}
		id = t.spans[id-1].Parent
	}
	return false
}

// traceFile is the JSON document a traced run writes.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// SelfS is each layer's self time over the whole run, in seconds.
	SelfS map[string]float64 `json:"self_s"`
	// Instances are per-instance rows: self time per layer within one
	// instance's span of the traced pass.
	Instances []instanceRow `json:"instances,omitempty"`
	Spans     []span        `json:"spans"`
}

type instanceRow struct {
	Name  string             `json:"name"`
	WallS float64            `json:"wall_s"`
	SelfS map[string]float64 `json:"self_s"`
}

// write dumps the trace as JSON into dir and returns the file path.
func (t *tracer) write(dir, workload string, seed uint64, rows []instanceRow) (string, error) {
	doc := traceFile{Workload: workload, Seed: seed, SelfS: t.selfByName(0),
		Instances: rows, Spans: t.spans}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
