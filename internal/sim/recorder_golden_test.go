package sim

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/core"
	"tetriserve/internal/engine"
	"tetriserve/internal/lifecycle"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

var updateRecorderGolden = flag.Bool("update", false, "rewrite testdata/recorder.golden")

// recorderDigest condenses what a run's lifecycle recorders expose into a
// few lines: the sha256 of the span-sink JSONL, the sha256 of the rendered
// lookups (active timelines read mid-run, then every 16th request ID after
// the run, evicted ones as "missing"), and the aggregates.
type recorderDigest struct {
	sink    bytes.Buffer
	lookups bytes.Buffer
	lines   int
	spans   int
	maxSpan int
}

// look renders one lookup's result into the lookup log: the JSON the
// daemon serves plus the two fields JSON omits.
func (d *recorderDigest) look(key string, tl *lifecycle.Timeline, ok bool) {
	if !ok {
		fmt.Fprintf(&d.lookups, "%s missing\n", key)
		return
	}
	b, err := json.Marshal(tl)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(&d.lookups, "%s %s res=%v running=%v\n", key, b, tl.Res, tl.Running)
}

func (d *recorderDigest) String(recs []*lifecycle.Recorder) string {
	sc := bufio.NewScanner(bytes.NewReader(d.sink.Bytes()))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var tl lifecycle.Timeline
		if err := json.Unmarshal(sc.Bytes(), &tl); err != nil {
			panic(err)
		}
		d.lines++
		d.spans += len(tl.Spans)
		d.maxSpan = max(d.maxSpan, len(tl.Spans))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "timelines %d spans %d max-spans %d\n", d.lines, d.spans, d.maxSpan)
	fmt.Fprintf(&b, "sink    %x\n", sha256.Sum256(d.sink.Bytes()))
	fmt.Fprintf(&b, "lookups %x\n", sha256.Sum256(d.lookups.Bytes()))
	for i, rec := range recs {
		fmt.Fprintf(&b, "recorder %d finalized %d\n", i, rec.Finalized())
		for _, p := range rec.Phases() {
			fmt.Fprintf(&b, "  phases %+v\n", p)
		}
		for _, a := range rec.Attainment() {
			fmt.Fprintf(&b, "  attainment %+v\n", a)
		}
	}
	return b.String()
}

// deepQueueDigest runs a single 8-GPU shard offered about twice what it
// serves, with no drop policy (the sim-backlog shape, shortened), into a
// recorder whose ring holds half the trace. Requests carry no trace ID, so
// lookups go through the derived req-<id> keys as well as decimal IDs.
func deepQueueDigest() string {
	reqs := workload.Generate(workload.GeneratorConfig{
		Model:       testMdl,
		Mix:         workload.UniformMix(),
		Arrivals:    workload.PoissonArrivals{PerMinute: 60},
		SLO:         workload.NewSLOPolicy(1.0),
		NumRequests: 600,
		Seed:        3,
	})
	var d recorderDigest
	rec := lifecycle.NewRecorder(lifecycle.Config{Shard: "deep", Capacity: 300, Sink: &d.sink})
	runs := 0
	probe := control.Hooks{RunStarted: func(_ time.Duration, run *engine.Run) {
		if runs++; runs%16 == 0 {
			key := strconv.Itoa(int(run.Asg.Requests[0]))
			tl, ok := rec.Lookup(key)
			d.look(key, tl, ok)
		}
	}}
	if _, err := Run(Config{
		Model: testMdl, Topo: testTopo, Profile: testProf, Requests: reqs,
		Scheduler:      core.NewScheduler(testProf, testTopo, core.DefaultConfig()),
		Hooks:          rec.Hooks().Then(probe),
		MaxVirtualTime: 1000 * time.Hour,
	}); err != nil {
		panic(err)
	}
	for id := 1; id <= len(reqs); id += 16 {
		key := "req-" + strconv.Itoa(id)
		if id%32 == 1 {
			key = strconv.Itoa(id)
		}
		tl, ok := rec.Lookup(key)
		d.look(key, tl, ok)
	}
	return d.String([]*lifecycle.Recorder{rec})
}

// fleetDigest runs the sim-fleet shape (four 2-GPU shards, elastic
// rebalancing, a drop policy) with 256-timeline rings, which the trace wraps
// about twice. The router mints trace IDs, so lookups use them too.
func fleetDigest() string {
	specs := shardSpecs(4, 8)
	for i := range specs {
		specs[i].Capacity = simgpu.MaskRange(0, 2)
	}
	trace := smallMixTrace(2000, 1, 30, 1.2)
	var d recorderDigest
	res, err := RunSharded(ShardedConfig{
		Model:             testMdl,
		Shards:            specs,
		Requests:          trace,
		Rebalance:         &RebalanceConfig{},
		SpanSink:          &d.sink,
		LifecycleCapacity: 256,
		DropLateFactor:    4,
		MaxVirtualTime:    24 * time.Hour,
	})
	if err != nil {
		panic(err)
	}
	for id := 1; id <= len(trace); id += 16 {
		key := strconv.Itoa(id)
		if id%32 == 1 {
			key = "t-" + key
		}
		tl, ok := res.Timeline(key)
		d.look(key, tl, ok)
	}
	return d.String(res.Lifecycles)
}

// TestRecorderGolden pins what the lifecycle recorder emits and serves —
// the span log, rendered lookups of active and finalized timelines, and the
// aggregates — on a deep queue whose timelines run past 16 spans and on the
// fleet shape with wrapping rings. The recorder's storage may change; none
// of this may. Regenerate with
// `go test ./internal/sim -run TestRecorderGolden -update` only for an
// intended change of output.
func TestRecorderGolden(t *testing.T) {
	got := "deep-queue\n" + deepQueueDigest() + "fleet\n" + fleetDigest()
	path := filepath.Join("testdata", "recorder.golden")
	if *updateRecorderGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("recorder output diverged from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
