package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pathdriverwash/internal/assayio"
	"pathdriverwash/internal/corpus"
	"pathdriverwash/internal/obs"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/service"
	"pathdriverwash/pkg/pathdriver"
)

// mixedShape is the pdwd-mixed traffic: an open loop at a fixed rate,
// 70% repeats of a 16-assay hot set, the rest fresh assays, a quarter
// of which are re-sent 2 ms after their first send, while that solve
// is still running. The rate buys the tail percentile enough fresh
// samples per run to be steady from seed to seed.
var mixedShape = loadShape{Rate: 10, Hot: 16, HotShare: 0.7, FreshGap: 2,
	ResendShare: 0.25, ResendAfter: 2 * time.Millisecond}

// hotRungs is the hot set: small assays of every shape, warmed in
// set-up. Every fresh assay is a 5-op diamond of contamination density
// 0.6: one shape, size and density keep the cold-path tail a property
// of the solver, not of which kinds of assay a seed drew (across the
// three densities the mean cost of a solve differs by 1.8x). A cold
// heuristic solve of one takes about 85 ms. Fresh
// requests are three slots (300 ms) apart, so the single worker is
// busy under a third of the time: hits seldom wait for a CPU behind a
// solve, and a backlog deep enough to shed would need solves of 600 ms.
var hotRungs = []rung{{ops: 4, n: 6}, {ops: 5, n: 5}, {ops: 6, n: 5}}

// freshRung is the rung fresh assays are drawn from; n is set per run.
var freshRung = rung{ops: 5, shapes: []corpus.Shape{corpus.Diamond}, densities: []float64{0.6}}

// sloLimit is pdwd-mixed's latency limit: a request meets the SLO when
// it is answered 200, not degraded, correct, within this time of its
// due time.
const sloLimit = time.Second

// drainLimit bounds the wait for in-flight requests after the last one
// was sent.
const drainLimit = 60 * time.Second

// mixedSetup is the prepared pdwd-mixed run.
type mixedSetup struct {
	arr    []arrival
	bodies [][]byte
	h      http.Handler
	// warm is how long each hot assay's warm-up solve took.
	warm []time.Duration
}

// sent is one answered request.
type sent struct {
	arrival
	sent, done time.Duration // offsets from the start of the load
	code       int
	body       []byte
}

func runMixed(ctx context.Context, cfg config) (*outcome, error) {
	st, setupS, err := medianSetup(3, func() (*mixedSetup, error) { return setupMixed(ctx, cfg) })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	// Set-up's hot-set solves already warmed the solve path; collect its
	// garbage so the load does not pay for it.
	runtime.GC()
	qwBefore := queueWaitBuckets()
	reqs, err := st.load()
	if err != nil {
		return nil, err
	}
	qw := histQuantile(qwBefore, queueWaitBuckets(), 0.9)
	loadWall := 0.0
	for _, r := range reqs {
		loadWall = max(loadWall, r.done.Seconds())
	}

	o := &outcome{values: map[string]float64{}}
	var tally simTally
	a := analyzeMixed(ctx, st, reqs, o, &tally)

	lat := make([]float64, len(reqs))
	var late, busy float64
	for i, r := range reqs {
		lat[i] = (r.done - r.Due).Seconds()
		late = max(late, (r.sent - r.Due).Seconds())
		busy += (r.done - r.sent).Seconds()
	}
	t := tailOf(lat)
	fmt.Fprintf(os.Stderr, "pdwd-mixed: %d requests (%d hits, %d misses, %d coalesced), latency n=%d p50=%.4fs p%g=%.4fs, generator late <= %.4fs\n",
		len(reqs), a.hits, a.misses, a.coalesced, t.N, t.P50, t.Pct, t.Value, late)

	if !cfg.trace {
		o.values = map[string]float64{
			"setup_s":       setupS,
			"solve_s":       busy,
			"n_wash":        float64(a.nWash),
			"l_wash_mm":     a.lWash,
			"t_assay_s":     float64(a.tAssay),
			"proven_share":  ratio(a.proven, len(a.counted)),
			"ok_share":      1 - ratio(o.failed, o.attempted),
			"latency_p50_s": t.P50,
			"latency_p90_s": quantile(lat, 0.9),
			"slo_met_share": ratio(a.sloMet, len(reqs)),
		}
		return o, nil
	}

	// Traced run: the load's spans are recorded at the handler boundary
	// from the timestamps taken there; the layers behind a miss are
	// replayed per distinct fresh assay, and coverage is the share of
	// those replays their layer spans account for.
	tr := newTracer()
	t0 := time.Now()
	load := tr.derive(0, "load", 0, loadWall)
	for _, r := range reqs {
		id := tr.derive(load, "service.request", r.sent.Seconds(), (r.done - r.sent).Seconds())
		tr.spans[id-1].Attrs = map[string]any{"kind": r.Kind.String(), "code": r.code}
	}
	overhead := time.Since(t0).Seconds() / loadWall

	l := newLayerStats()
	v := l.v
	if err := replayWire(tr, st, reqs, v); err != nil {
		o.fail("wire replay: %v", err)
	}
	replayed := map[int]bool{}
	var replayS, coveredS float64
	for _, r := range reqs {
		if r.Kind != freshReq || replayed[r.Body] {
			continue
		}
		replayed[r.Body] = true
		req, err := service.DecodeRequest(bytes.NewReader(st.bodies[r.Body]))
		if err != nil {
			return nil, err
		}
		as, scfg, err := assayio.FromDocument(req.Assay)
		if err != nil {
			return nil, err
		}
		id := tr.begin(0, "replay.miss")
		base, res, err := tracedSolve(ctx, tr, id, as, scfg, req.Options, l)
		if err == nil {
			err = replayLayers(ctx, tr, id, base, res, l)
		}
		replayS += tr.end(id)
		coveredS += coveredByChildren(tr, id)
		if err != nil {
			o.fail("replay of fresh assay %d: %v", r.Body, err)
		}
	}
	v = l.finish()
	v["sim.s"] = tally.busy.Seconds()
	v["sim.violations"] = float64(tally.violations)
	v["sim.holding_violations"] = float64(tally.holding)
	v["service.requests"] = float64(len(reqs))
	v["service.hits"] = float64(a.hits)
	v["service.misses"] = float64(a.misses)
	v["service.coalesced"] = float64(a.coalesced)
	v["service.shed"] = float64(a.shed)
	v["service.rejected"] = float64(a.rejected)
	v["service.errors"] = float64(a.errors)
	v["service.hit_share"] = ratio(a.hits, len(reqs))
	v["service.queue_wait_p90_s"] = qw
	v["service.hit_latency_p50_s"] = median(a.hitLat)
	v["service.miss_latency_p50_s"] = median(a.missLat)
	v["service.response_bytes"] = float64(a.bytes) / float64(max(1, a.ok))
	v["loadgen.late_max_s"] = late
	v["trace.overhead_share"] = overhead
	v["trace.coverage_share"] = coveredS / max(replayS, 1e-9)
	o.values = v
	path, err := tr.write(cfg.out, "pdwd-mixed", cfg.seed, nil)
	if err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "pdwd-mixed: trace %s\n", path)
	return o, nil
}

// setupMixed generates the hot and fresh assays, encodes their request
// bodies, builds the server, and warms the hot set through it.
func setupMixed(ctx context.Context, cfg config) (*mixedSetup, error) {
	arr, fresh := arrivals(cfg.seed, mixedShape, cfg.seconds)
	fr := freshRung
	fr.n = fresh
	benches, err := ladder(ctx, cfg.seed, append(append([]rung(nil), hotRungs...), fr))
	if err != nil {
		return nil, err
	}
	st := &mixedSetup{arr: arr}
	for _, b := range benches {
		body, err := requestBody(b)
		if err != nil {
			return nil, err
		}
		st.bodies = append(st.bodies, body)
	}
	st.h = service.New(service.Config{Workers: 1}).Handler()
	for i := 0; i < mixedShape.Hot; i++ {
		t0 := time.Now()
		if code, body := post(st.h, st.bodies[i]); code != http.StatusOK {
			return nil, fmt.Errorf("warming hot assay %d: status %d: %s", i, code, body)
		}
		st.warm = append(st.warm, time.Since(t0))
	}
	return st, nil
}

// post sends one request body through the handler in-process.
func post(h http.Handler, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// load runs the open loop: each request is sent at its due time on its
// own goroutine, whatever the state of earlier ones.
func (st *mixedSetup) load() ([]sent, error) {
	out := make([]sent, len(st.arr))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range st.arr {
		if d := a.Due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		out[i] = sent{arrival: a, sent: time.Since(start)}
		wg.Add(1)
		go func(r *sent) {
			defer wg.Done()
			r.code, r.body = post(st.h, st.bodies[r.Body])
			r.done = time.Since(start)
		}(&out[i])
	}
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
		return out, nil
	case <-time.After(drainLimit):
		return nil, fmt.Errorf("requests still in flight %v after the last send", drainLimit)
	}
}

// mixedTally is what the checks of a pdwd-mixed run found.
type mixedTally struct {
	hits, misses, coalesced, shed, rejected, errors, ok int
	sloMet, proven                                      int
	nWash, tAssay, bytes                                int
	lWash                                               float64
	hitLat, missLat                                     []float64
	// counted marks the assays whose quality is in the sums: each
	// distinct assay counts once, however often it was answered.
	counted map[int]bool
}

// analyzeMixed classifies every response and checks every 200 answer:
// the wire schedule is decoded, rebuilt against a fresh synthesis of
// the same request, and re-verified.
//
// For proven_share it counts the distinct answered assays whose solve —
// the hot set's warm-up, a fresh assay's miss — took less than the 5 s
// reference-compression cap: a compression the cap stopped would have
// held the solve at least that long.
func analyzeMixed(ctx context.Context, st *mixedSetup, reqs []sent, o *outcome, tally *simTally) mixedTally {
	a := mixedTally{counted: map[int]bool{}}
	bases := map[int]*schedule.Schedule{}
	checked := map[string]error{}
	solved := map[int]time.Duration{}
	for i, d := range st.warm {
		solved[i] = d
	}
	for _, r := range reqs {
		o.attempted++
		degraded, err := a.check(ctx, st, r, bases, checked, tally)
		if err == nil && !degraded && r.Kind == freshReq && r.code == http.StatusOK {
			if _, ok := solved[r.Body]; !ok {
				solved[r.Body] = r.done - r.sent
			}
		}
		switch {
		case err != nil:
			o.failed++
			o.fail("request for assay %d (%s, due %v): %v", r.Body, r.Kind, r.Due, err)
		case degraded || r.code != http.StatusOK:
			o.failed++
			fmt.Fprintf(os.Stderr, "pdwd-mixed: request for assay %d (%s, due %v) failed: status %d, degraded %t\n",
				r.Body, r.Kind, r.Due, r.code, degraded)
		case (r.done - r.Due) <= sloLimit:
			a.sloMet++
		}
	}
	for body := range a.counted {
		if d, ok := solved[body]; ok && d < compressLimit {
			a.proven++
		}
	}
	return a
}

// check classifies one response and, for a 200, re-verifies its
// schedule. Refusals (429) and degraded answers are failures but not
// incorrect outputs, so they return a nil error.
func (a *mixedTally) check(ctx context.Context, st *mixedSetup, r sent, bases map[int]*schedule.Schedule,
	checked map[string]error, tally *simTally) (degraded bool, err error) {

	lat := (r.done - r.Due).Seconds()
	switch {
	case r.code == http.StatusTooManyRequests:
		a.rejected++
		return false, nil
	case r.code != http.StatusOK:
		a.errors++
		return false, fmt.Errorf("status %d: %s", r.code, r.body)
	}
	var resp service.SolveResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		a.errors++
		return false, fmt.Errorf("undecodable response: %w", err)
	}
	a.ok++
	a.bytes += len(r.body)
	switch {
	case resp.Degraded:
		a.shed++
	case resp.Cached:
		a.hits++
		a.hitLat = append(a.hitLat, lat)
	case resp.Coalesced:
		a.coalesced++
	default:
		a.misses++
		a.missLat = append(a.missLat, lat)
	}
	base, ok := bases[r.Body]
	if !ok {
		if base, err = synthesizeBody(ctx, st.bodies[r.Body]); err != nil {
			return resp.Degraded, fmt.Errorf("re-synthesis: %w", err)
		}
		bases[r.Body] = base
	}
	// Hits repeat their leader's schedule; check each distinct one once.
	doc, err := json.Marshal(resp.Schedule)
	if err != nil {
		return resp.Degraded, fmt.Errorf("re-encoding schedule: %w", err)
	}
	key := strconv.Itoa(r.Body) + string(doc)
	err, seen := checked[key]
	if !seen {
		err = checkWire(&resp, base, tally)
		checked[key] = err
	}
	if err != nil {
		return resp.Degraded, err
	}
	if !a.counted[r.Body] {
		a.counted[r.Body] = true
		a.nWash += resp.NWash
		a.lWash += resp.LWashMM
		a.tAssay += resp.TAssayS
	}
	return resp.Degraded, nil
}

// synthesizeBody decodes a request body the way the server does and
// synthesizes its wash-free base schedule.
func synthesizeBody(ctx context.Context, body []byte) (*schedule.Schedule, error) {
	req, err := service.DecodeRequest(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	a, cfg, err := assayio.FromDocument(req.Assay)
	if err != nil {
		return nil, err
	}
	syn, err := pathdriver.Synthesize(ctx, a, cfg)
	if err != nil {
		return nil, err
	}
	return syn.Schedule, nil
}

// replayWire times the wire layers on the run's own bytes: decoding
// each request body, computing its cache key, and encoding each 200
// response.
func replayWire(tr *tracer, st *mixedSetup, reqs []sent, v map[string]float64) error {
	id := tr.begin(0, "replay.wire")
	for _, r := range reqs {
		t0 := time.Now()
		req, err := service.DecodeRequest(bytes.NewReader(st.bodies[r.Body]))
		v["wire.decode_s"] += time.Since(t0).Seconds()
		if err != nil {
			return fmt.Errorf("decoding request: %w", err)
		}
		t0 = time.Now()
		service.Key(req)
		v["wire.key_s"] += time.Since(t0).Seconds()
		if r.code != http.StatusOK {
			continue
		}
		var resp service.SolveResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			return fmt.Errorf("decoding response: %w", err)
		}
		t0 = time.Now()
		_, err = json.Marshal(&resp)
		v["wire.encode_s"] += time.Since(t0).Seconds()
		if err != nil {
			return fmt.Errorf("encoding response: %w", err)
		}
	}
	tr.end(id)
	return nil
}

// queueWaitBuckets reads the server's queue-wait histogram (cumulative
// bucket counts by upper bound) from the default metrics registry.
func queueWaitBuckets() map[float64]float64 {
	var buf bytes.Buffer
	obs.Default().WritePrometheus(&buf)
	out := map[float64]float64{}
	sc := bufio.NewScanner(&buf)
	const prefix = `pdwd_queue_wait_seconds_bucket{le="`
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		le, rest, ok := strings.Cut(line[len(prefix):], `"}`)
		if !ok || le == "+Inf" {
			continue
		}
		ub, err1 := strconv.ParseFloat(le, 64)
		n, err2 := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err1 == nil && err2 == nil {
			out[ub] = n
		}
	}
	return out
}

// histQuantile estimates the q-quantile of the observations added
// between two cumulative bucket snapshots, interpolating linearly
// within the bucket that holds it.
func histQuantile(before, after map[float64]float64, q float64) float64 {
	var bounds []float64
	for ub := range after {
		bounds = append(bounds, ub)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 {
		return 0
	}
	total := after[bounds[len(bounds)-1]] - before[bounds[len(bounds)-1]]
	if total <= 0 {
		return 0
	}
	want := q * total
	prevUB, prevN := 0.0, 0.0
	for _, ub := range bounds {
		n := after[ub] - before[ub]
		if n >= want {
			if n == prevN {
				return ub
			}
			return prevUB + (ub-prevUB)*(want-prevN)/(n-prevN)
		}
		prevUB, prevN = ub, n
	}
	return bounds[len(bounds)-1]
}
