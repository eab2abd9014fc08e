// Command perfbench is the PathDriver-Wash benchmark driver. It runs
// one workload against the program's public entry points, checks every
// answer, and prints its metrics as one JSON object on the last line of
// stdout:
//
//	perfbench -workload table2-exact -seed 1 -seconds 25 -trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// runs the workload again with spans at every layer boundary, writes
// the spans to -out, and reports the per-layer metrics. Workloads,
// metrics and sizing notes are described in README.md. Any incorrect
// output makes the command exit with status 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metric names one reported figure and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the system sees (-trace 0).
var endToEnd = []metric{
	{"setup_s", "s"},
	{"solve_s", "s"},
	{"n_wash", "count"},
	{"l_wash_mm", "mm"},
	{"t_assay_s", "assay-s"},
	{"proven_share", "ratio"},
	{"ok_share", "ratio"},
	{"latency_p50_s", "s"},
	{"latency_p90_s", "s"},
	{"slo_met_share", "ratio"},
}

// perLayer are the metrics of single layers (-trace 1). A layer the
// workload does not exercise reports 0.
var perLayer = []metric{
	{"compress.calls", "count"}, {"compress.busy_s", "s"}, {"compress.capped", "count"},
	{"washpath.models", "count"}, {"washpath.ilp_s", "s"}, {"washpath.ilp_p90_s", "s"},
	{"washpath.optimal", "count"}, {"washpath.infeasible", "count"}, {"washpath.limit", "count"},
	{"washpath.fallback", "count"}, {"washpath.useful_share", "ratio"},
	{"washpath.nodes", "count"}, {"washpath.pivots", "count"},
	{"washpath.bfs_calls", "count"}, {"washpath.bfs_s", "s"},
	{"window.models", "count"}, {"window.s", "s"}, {"window.proven", "count"},
	{"window.nodes", "count"}, {"window.pivots", "count"}, {"window.time_to_best_s", "s"},
	{"replan.free_pairs", "count"},
	{"milp.nodes_per_s", "1/s"}, {"lp.pivots_per_s", "1/s"},
	{"pdw.calls", "count"}, {"pdw.busy_s", "s"}, {"pdw.insertion_s", "s"}, {"pdw.window_s", "s"},
	{"pdw.verify_s", "s"}, {"pdw.rounds", "count"}, {"pdw.washes", "count"},
	{"pdw.integrated_removals", "count"},
	{"synth.calls", "count"}, {"synth.busy_s", "s"},
	{"contam.analyze_calls", "count"}, {"contam.analyze_s", "s"}, {"contam.requirements", "count"},
	{"contam.groups", "count"}, {"contam.merged_groups", "count"}, {"contam.skip_share", "ratio"},
	{"contam.verify_s", "s"},
	{"replan.calls", "count"}, {"replan.s", "s"}, {"replan.tasks", "count"},
	{"sim.s", "s"}, {"sim.violations", "count"}, {"sim.holding_violations", "count"},
	{"service.requests", "count"}, {"service.hits", "count"}, {"service.misses", "count"},
	{"service.coalesced", "count"}, {"service.shed", "count"}, {"service.rejected", "count"},
	{"service.errors", "count"}, {"service.hit_share", "ratio"}, {"service.queue_wait_p90_s", "s"},
	{"service.hit_latency_p50_s", "s"}, {"service.miss_latency_p50_s", "s"},
	{"service.response_bytes", "B"},
	{"wire.decode_s", "s"}, {"wire.key_s", "s"}, {"wire.encode_s", "s"},
	{"loadgen.late_max_s", "s"}, {"trace.overhead_share", "ratio"}, {"trace.coverage_share", "ratio"},
	{"mem.peak_rss_mb", "MB"},
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	out      string
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int
	// failures describe the incorrect outputs; any makes the run
	// incorrect.
	failures []string
	values   map[string]float64
}

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, config) (*outcome, error){
	"table2-exact":     table2Exact.run,
	"corpus-heuristic": corpusHeuristic.run,
	"pdwd-mixed":       runMixed,
}

func main() {
	var cfg config
	var seed uint64
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: table2-exact, corpus-heuristic or pdwd-mixed")
	flag.Uint64Var(&seed, "seed", 1, "input seed (table2-exact has fixed inputs and ignores it)")
	flag.IntVar(&seconds, "seconds", 25, "how long one run measures, in seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for trace files")
	flag.Parse()
	cfg.seed, cfg.seconds, cfg.trace = seed, time.Duration(seconds)*time.Second, trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n",
			cfg.workload, seconds, trace)
		os.Exit(2)
	}
	o, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if cfg.trace {
		o.values["mem.peak_rss_mb"] = peakRSSMB()
	}
	for _, f := range o.failures {
		fmt.Fprintf(os.Stderr, "perfbench: incorrect output: %s\n", f)
	}
	line, err := resultLine(o, cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(line)
	if len(o.failures) > 0 {
		os.Exit(1)
	}
}

// resultLine renders the result object: every end-to-end metric, or
// every per-layer one when traced, in table order.
func resultLine(o *outcome, traced bool) (string, error) {
	list := endToEnd
	if traced {
		list = perLayer
	}
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`,
		len(o.failures) == 0, o.attempted, o.failed)
	for i, m := range list {
		v, ok := o.values[m.name]
		if !ok && !traced {
			return "", fmt.Errorf("metric %s was not measured", m.name)
		}
		unit, _ := json.Marshal(m.unit)
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `"%s": {"value": %s, "unit": %s}`, m.name, formatValue(v), unit)
	}
	b.WriteString("}}")
	return b.String(), nil
}

// formatValue prints v with all its digits; non-finite values, which
// JSON cannot carry, print as 0.
func formatValue(v float64) string {
	if v != v || v > 1e300 || v < -1e300 {
		return "0"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// peakRSSMB is the process's peak resident set size (Linux VmHWM), or
// 0 where /proc does not report it.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// warmUp runs one untimed call, so lazy initialisation and first-use
// page faults are not timed, then collects the set-up's garbage, so the
// measured work does not pay for it.
func warmUp(call func()) {
	call()
	runtime.GC()
}

// medianSetup runs setup reps times and returns the last state and the
// median set-up time in seconds.
func medianSetup[T any](reps int, setup func() (T, error)) (T, float64, error) {
	var st T
	var times []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return st, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		st = s
	}
	return st, median(times), nil
}
