package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"tetriserve/internal/core"
	"tetriserve/internal/model"
	"tetriserve/internal/server"
	"tetriserve/internal/simgpu"
)

// tiny shrinks every workload so that all four, traced and untraced, run in
// a few seconds; the live rates are raised so that the short window still
// holds timeline reads and one of each rotated read.
var tiny = params{BacklogRequests: 200, FleetRequests: 800, LiveRate: 300, ReadRate: 600}

// benchmarkSpec is BENCHMARK.json as the driver reads it.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp benchmarkSpec
	if err := dec.Decode(&sp); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return sp
}

// TestSpecMatchesCatalog holds BENCHMARK.json and the program's metric
// catalogue together: same workloads, same metric names and units, in order.
func TestSpecMatchesCatalog(t *testing.T) {
	sp := loadSpec(t)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %q) against the program's %q", i, w.Name, w.Why, workloads[i].name)
		}
	}
	check := func(kind string, spec []specMetric, defs []metricDef, bounded bool) {
		if len(spec) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(spec), len(defs))
		}
		for i, m := range spec {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s %d: %s [%s] against the program's %s [%s]", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || bounded && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s: bound %v", m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", sp.EndToEnd, endToEnd, true)
	check("per_layer", sp.PerLayer, perLayer, false)
}

// TestSmoke runs all four workloads at tiny size, untraced and traced, and
// checks that every metric BENCHMARK.json names comes out well-formed and
// that no operation failed.
func TestSmoke(t *testing.T) {
	sp := loadSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res := w.run(env{params: tiny, workload: w.name, seed: 3, seconds: 600 * time.Millisecond, traced: traced, outDir: dir})
			for _, f := range res.failures {
				t.Errorf("%s traced=%v: %s", w.name, traced, f)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not emitted", w.name, traced, m.Name)
				case !nameRE.MatchString(m.Name) || got.Unit != m.Unit || got.Unit == "":
					t.Errorf("%s: name or unit malformed (%q, want %q)", m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || (!traced && got.Value == 0):
					t.Errorf("%s traced=%v: %s = %v", w.name, traced, m.Name, got.Value)
				}
			}
			if traced && w.name == "live-fleet-observed" {
				for _, name := range []string{"server.read_p50_ms", "lifecycle.lookup_p50_us", "telemetry.scrape_p50_ms", "server.remote_probe_wire_p50_us"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, the read side did not run", w.name, name, res.Metrics[name].Value)
					}
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(dir, w.name+"-seed3.spans.jsonl")); err != nil {
					t.Errorf("%s: span file: %v", w.name, err)
				}
			}
		}
	}
}

// TestTracedRunKeepsOutcomes is the decorators' fidelity check: a decorated
// repetition, an oracle-checked one and a plain one agree on every outcome.
func TestTracedRunKeepsOutcomes(t *testing.T) {
	e := env{params: tiny, seed: 5}
	for name, setup := range map[string]func(env) simWorkload{"sim-backlog": setupBacklog, "sim-fleet": setupFleet} {
		w := setup(e)
		tr := newTracer(0)
		var first uint64
		for i, v := range w.variants {
			out, err := w.exec(v, tr)
			if err != nil {
				t.Fatalf("%s variant %d: %v", name, v, err)
			}
			if i == 0 {
				first = out.hash
			} else if out.hash != first {
				t.Errorf("%s: variant %d outcome hash %x, plain %x", name, v, out.hash, first)
			}
		}
		if len(tr.spans) == 0 {
			t.Errorf("%s: the traced repetition recorded no span", name)
		}
	}
}

// TestDecoratorsForwardOptionalMethods pins the methods the control loop and
// the router API discover by type assertion.
func TestDecoratorsForwardOptionalMethods(t *testing.T) {
	topo := simgpu.H100xN(2)
	cfg := core.DefaultConfig()
	cfg.MaxCacheInterval = 3
	inner := core.NewScheduler(buildProfile(model.FLUX(), topo), topo, cfg)
	var sc any = &tracedScheduler{Scheduler: inner}
	if o, ok := sc.(interface{ Overhead() time.Duration }); !ok || o.Overhead() != inner.Overhead() {
		t.Error("Overhead not forwarded")
	}
	if e, ok := sc.(interface{ EagerAdmission() bool }); !ok || e.EagerAdmission() != inner.EagerAdmission() {
		t.Error("EagerAdmission not forwarded")
	}
	if c, ok := sc.(interface{ MaxCacheInterval() int }); !ok || c.MaxCacheInterval() != 3 {
		t.Error("MaxCacheInterval not forwarded")
	}
	var sh server.RouterShard = &tracedShard{}
	if _, ok := sh.(server.TracedSubmitter); !ok {
		t.Error("TracedSubmitter not forwarded")
	}
	if _, ok := sh.(server.StatsFetcher); !ok {
		t.Error("StatsFetcher not forwarded")
	}
	if _, ok := sh.(server.TimelineFetcher); !ok {
		t.Error("TimelineFetcher not forwarded")
	}
	if _, ok := sh.(server.ResizableShard); !ok {
		t.Error("ResizableShard not forwarded")
	}
}

func TestPercentileSampleCountRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n          int
		want, used float64
	}{
		{0, 99, 99},      // empty: value 0
		{5, 95, 50},      // under 20 samples only the median is supported
		{100, 99, 90},    // 10 of 100 samples lie beyond p90
		{200, 95, 95},    // exactly 10 beyond p95
		{2000, 99, 99},   // 20 beyond p99
		{2000, 50, 50},   // a supported percentile is reported as asked
		{1000, 99.9, 99}, // 10 of 1000 beyond p99
	} {
		xs := seq(c.n)
		v, used := percentile(xs, c.want)
		if math.Abs(used-c.used) > 1e-9 {
			t.Errorf("n=%d want p%v: used p%v, expected p%v", c.n, c.want, used, c.used)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if c.n > 0 && c.used > 50 && beyond < 10 {
			t.Errorf("n=%d p%v = %v leaves %d samples beyond it", c.n, used, v, beyond)
		}
		if c.n == 0 && v != 0 {
			t.Errorf("empty input: %v", v)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
	if q1, _, q3 := quartiles([]float64{3, 1}); q1 != 0.5 || q3 != 3.5 {
		t.Errorf("two values: %v %v", q1, q3)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 2, Start: 12, End: 20},  // grandchild: comes off span 2 only
		{ID: 4, Parent: 1, Start: 20, End: 50},  // overlaps span 2: the overlap counts once
		{ID: 5, Parent: 1, Start: 90, End: 120}, // clipped to the parent
		{ID: 6, Parent: 0, Start: 200, End: 260},
		{ID: 7, Parent: 6, Start: 200, End: 220},
		{ID: 8, Parent: 6, Start: 230, End: 260},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 12, 3: 8, 4: 30, 5: 30, 6: 10} {
		if self[id-1] != want {
			t.Errorf("span %d: self time %d, want %d", id, self[id-1], want)
		}
	}
	// Children that do not overlap: they and the self time add up to the root.
	if got := spans[6].dur() + spans[7].dur() + self[5]; got != spans[5].dur() {
		t.Errorf("children + self = %d, root = %d", got, spans[5].dur())
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"within the bound", steady, []float64{104, 105, 103, 104, 106}, false, "same"},
		{"slower beyond the bound", steady, []float64{120, 121, 119, 120, 122}, false, "WORSE"},
		{"faster beyond the bound", steady, []float64{80, 81, 79, 80, 82}, false, "better"},
		{"lower is worse when higher is better", steady, []float64{80, 81, 79, 80, 82}, true, "WORSE"},
		{"a side noisier than the bound", steady, []float64{90, 130, 100, 150, 110}, false, "unresolved"},
		{"nothing to compare", steady, nil, false, "missing"},
	} {
		if _, got := verdict(c.a, c.b, c.higher, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}

	side := func(call float64, failed int) *side {
		return &side{
			values:    map[string]map[string][]float64{"sim-fleet": {"call_p50_ms": {call, call * 1.01}, "setup_s": {1, 1}}},
			attempted: map[string]int{"sim-fleet": 100},
			failed:    map[string]int{"sim-fleet": failed},
		}
	}
	// A results file as a run appends it reads back into the same side.
	path := filepath.Join(t.TempDir(), "a.jsonl")
	for _, call := range []float64{100, 101} {
		res := newResult(false)
		res.Attempted, res.Metrics = 50, map[string]metric{"call_p50_ms": {call, "ms"}, "setup_s": {1, "s"}}
		if err := appendRecord(path, record{Workload: "sim-fleet", result: res}); err != nil {
			t.Fatal(err)
		}
	}
	if err := appendRecord(path, record{Workload: "sim-fleet", Trace: 1, result: newResult(true)}); err != nil {
		t.Fatal(err)
	}
	got, err := readSide(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := side(100, 0); !reflect.DeepEqual(got, want) {
		t.Errorf("read back %+v, want %+v", got, want)
	}

	var sp spec
	if err := json.Unmarshal([]byte(`{"end_to_end":[{"name":"call_p50_ms","better":"lower","bound":0.1}]}`), &sp); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := compareSides(&sp, side(100, 0), side(103, 0), &out); code != 0 {
		t.Errorf("unchanged run: exit %d\n%s", code, out.String())
	}
	if code := compareSides(&sp, side(100, 0), side(130, 0), &out); code != 1 {
		t.Errorf("regression: exit %d", code)
	}
	if code := compareSides(&sp, side(100, 0), side(100, 2), &out); code != 1 {
		t.Errorf("larger failed share: exit %d", code)
	}
	if !strings.Contains(out.String(), "sim-fleet") {
		t.Errorf("no row for the workload:\n%s", out.String())
	}
}
