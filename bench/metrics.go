package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric; BENCHMARK.json lists the same names
// and units (bench_test.go holds the two together).
type metricDef struct{ name, unit string }

// endToEnd are the numbers a user of the system sees; every workload reports
// every one of them, from the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sar_offered", "ratio"},
	{"req_latency_mean_s", "s"},
	{"req_latency_p99_s", "s"},
	{"call_p50_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's numbers, prefixed by the module they price.
// A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"core.plan_calls", "count"},
	{"core.plan_busy_ms", "ms"},
	{"core.plan_busy_share", "ratio"},
	{"core.plan_p50_us", "us"},
	{"core.plan_p99_us", "us"},
	{"core.plan_queue_depth_mean", "count"},
	{"core.plan_queue_depth_max", "count"},
	{"core.plan_ns_per_pending", "ns"},
	{"core.replay_hit_share", "ratio"},
	{"core.resumed_row_share", "ratio"},
	{"control.self_ms", "ms"},
	{"control.round_ticks", "count"},
	{"control.plan_rejected", "count"},
	{"control.start_failed", "count"},
	{"control.dropped_share", "ratio"},
	{"control.req_latency_p50_s", "s"},
	{"control.queue_wait_p50_s", "s"},
	{"control.queue_wait_p99_s", "s"},
	{"control.probe_p50_us", "us"},
	{"control.probe_p99_us", "us"},
	{"engine.runs", "count"},
	{"engine.gpu_busy_share", "ratio"},
	{"engine.mean_degree", "count"},
	{"engine.remaps", "count"},
	{"engine.warmups", "count"},
	{"engine.runs_preempted", "count"},
	{"router.decisions", "count"},
	{"router.early_reject_share", "ratio"},
	{"router.shed_share", "ratio"},
	{"router.probes_per_decision", "count"},
	{"router.probe_cache_hit_share", "ratio"},
	{"router.handler_self_p50_us", "us"},
	{"router.admit_p50_ms", "ms"},
	{"router.admit_p95_ms", "ms"},
	{"router.admit_p99_ms", "ms"},
	{"server.remote_probe_p50_us", "us"},
	{"server.remote_probe_p99_us", "us"},
	{"server.remote_probe_busy_ms", "ms"},
	{"server.remote_submit_p50_us", "us"},
	{"server.remote_submit_p99_us", "us"},
	{"server.remote_probe_wire_p50_us", "us"},
	{"server.shard_generate_handler_p50_us", "us"},
	{"server.read_p50_ms", "ms"},
	{"server.read_p95_ms", "ms"},
	{"server.http_5xx", "count"},
	{"server.http_errors", "count"},
	{"server.round_tick_share", "ratio"},
	{"lifecycle.hook_busy_ms", "ms"},
	{"lifecycle.overhead_share", "ratio"},
	{"lifecycle.finalized", "count"},
	{"lifecycle.spans_per_request", "count"},
	{"lifecycle.lookup_p50_us", "us"},
	{"telemetry.hook_busy_ms", "ms"},
	{"telemetry.scrape_p50_ms", "ms"},
	{"telemetry.scrape_bytes", "B"},
	{"telemetry.bus_dropped", "count"},
	{"rebalance.moves", "count"},
	{"costmodel.build_profile_ms", "ms"},
	{"workload.generate_ms", "ms"},
	{"sim.req_per_s", "1/s"},
	{"sim.rep_wall_ms_p50", "ms"},
	{"sim.rep_spread_pct", "%"},
	{"bench.generator_late_p99_ms", "ms"},
	{"bench.tracing_overhead_pct", "%"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload. The exported fields are the last line
// of standard output; the rest annotates the printed table.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	traced   bool // reports perLayer instead of endToEnd
	values   map[string]float64
	notes    map[string]string // per-metric annotation (sample count, percentile used)
	failures []string
}

// newResult starts a run that reports the per-layer metrics if traced, the
// end-to-end metrics otherwise.
func newResult(traced bool) *result {
	return &result{traced: traced, values: map[string]float64{}, notes: map[string]string{}}
}

func (r *result) defs() []metricDef {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// setPct records a percentile under the sample-count rule and notes the
// sample count and the percentile that was actually reported.
func (r *result) setPct(name string, xs []float64, want float64) {
	v, used := percentile(xs, want)
	r.values[name] = v
	r.notes[name] = fmt.Sprintf("n=%d p%s", len(xs), strconv.FormatFloat(used, 'f', -1, 64))
}

// fail counts n failed operations against the run.
func (r *result) fail(n int, format string, args ...any) {
	r.Failed += n
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// finish fixes the run's metric set: every end-to-end metric (none may be
// zero or non-finite) or every per-layer metric (unset = 0).
func (r *result) finish() {
	r.Metrics = make(map[string]metric, len(r.defs()))
	for _, d := range r.defs() {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) || (v == 0 && !r.traced) {
			r.fail(1, "metric %s = %v", d.name, v)
			v = 0
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	r.Correct = r.Failed == 0
}

// print writes the metric table: name, value, unit, annotation.
func (r *result) print(w io.Writer) {
	for _, d := range r.defs() {
		fmt.Fprintf(w, "%-38s %14.4f %-6s %s\n", d.name, r.Metrics[d.name].Value, d.unit, r.notes[d.name])
	}
	fmt.Fprintf(w, "%-38s %14d\n%-38s %14d\n%-38s %14d\n",
		"ops_attempted", r.Attempted, "ops_succeeded", r.Attempted-r.Failed, "ops_failed", r.Failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
