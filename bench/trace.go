package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// spanName is the layer boundary a span was recorded at. Names are small
// integers so that spans hold no pointers and cost the collector nothing.
type spanName uint8

const (
	spSimRun        spanName = iota // one sim.Run / sim.RunSharded call
	spPlan                          // one Scheduler.Plan call
	spHookLifecycle                 // one lifecycle.Recorder hook callback
	spHookTelemetry                 // one telemetry.Plane hook callback
	spRemoteProbe                   // router side of one shard call, by method
	spRemoteSubmit
	spRemoteStats
	spRemoteTimeline
	spRemoteResize
	spRouter                        // + route: one request served by the router's handler
	spShard  = spRouter + numRoutes // + route: one request served by a shard's handler
	numNames = spShard + numRoutes
)

// Routes the workloads hit, shared by the router's and the shards' handlers.
const (
	routeGenerate spanName = iota
	routeProbe
	routeTimeline
	routeStats
	routeFleet
	routeMetrics
	routeOther
	numRoutes
)

var routeNames = [numRoutes]string{"generate", "probe", "timeline", "stats", "fleet", "metrics", "other"}

func (n spanName) String() string {
	switch {
	case n >= spShard:
		return "shard." + routeNames[n-spShard]
	case n >= spRouter:
		return "router." + routeNames[n-spRouter]
	}
	return [...]string{"sim.run", "core.plan", "hook.lifecycle", "hook.telemetry",
		"remote.probe", "remote.submit", "remote.stats", "remote.timeline", "remote.resize"}[n]
}

func (n spanName) MarshalJSON() ([]byte, error) { return json.Marshal(n.String()) }

// span is one timed call into a layer, recorded by the benchmark's own
// decorators around that layer's public entry point.
type span struct {
	ID     int      `json:"id"`     // position in the recording, from 1
	Parent int      `json:"parent"` // 0 = root
	Trace  int      `json:"trace"`  // ID of the root span; spans of one request share it
	Name   spanName `json:"name"`
	Start  int64    `json:"start_ns"` // since the tracer's epoch
	End    int64    `json:"end_ns"`
	// Arg is a count taken at the boundary: the pending depth on core.plan,
	// the shard index on remote.*, the HTTP status on router.* and shard.*.
	Arg int `json:"arg"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run folds and dumps them. The
// untraced run has no tracer: its workloads install no decorator at all.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span

	// Parent links across goroutines. The router and the shards exchange
	// only the repo's own wire format, so a span cannot ride along; instead
	// the load generator keeps at most one write and one read in flight, and
	// each open router-side span is parked in the slot of its class for the
	// shard-side span it causes to pick up.
	routerOpen [numClasses]int
	remoteOpen [][numClasses]int // per shard
	simRoot    int               // open sim.run span, parent of plan and hook spans
}

// Request classes: the write path (generate → probe sweep → submit) and the
// read path (timeline, fleet, metrics). At most one of each is in flight.
const (
	classWrite = iota
	classRead
	numClasses
)

func newTracer(shards int) *tracer {
	return &tracer{epoch: time.Now(), remoteOpen: make([][numClasses]int, shards)}
}

func (t *tracer) begin(name spanName, parent, arg int) int {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := len(t.spans) + 1
	trace := id
	if parent > 0 {
		trace = t.spans[parent-1].Trace
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now, Arg: arg})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *tracer) setArg(id, arg int) {
	t.mu.Lock()
	t.spans[id-1].Arg = arg
	t.mu.Unlock()
}

func (t *tracer) setSlot(slot *int, id int) {
	t.mu.Lock()
	*slot = id
	t.mu.Unlock()
}

func (t *tracer) slot(slot *int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return *slot
}

// reset forgets the recorded spans and keeps their storage, so that the
// next sim repetition records without growing a buffer.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// selfTimes returns, for each span, its duration minus the part of that
// interval its direct children cover (children may overlap one another and
// are clipped to the parent). Spans are in recording order: span i has ID
// i+1, and a parent's children appear after it in order of their start.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	covered := make([]int64, len(spans)) // per parent: end of the covered prefix
	for i, s := range spans {
		self[i] = s.dur()
		covered[i] = s.Start
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p := s.Parent - 1
		lo, hi := max(s.Start, covered[p]), min(s.End, spans[p].End)
		if hi > lo {
			self[p] -= hi - lo
			covered[p] = hi
		}
	}
	return self
}

// maxDumpSpans bounds the span file: a traced sim repetition records a span
// per hook callback (~10⁵), and a person reading the file needs far fewer.
const maxDumpSpans = 50000

// dumpSpans writes the first maxDumpSpans spans as JSON lines, after one
// header line.
func dumpSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	kept := spans[:min(len(spans), maxDumpSpans)]
	err = enc.Encode(map[string]int{"spans_recorded": len(spans), "spans_written": len(kept)})
	for i := 0; err == nil && i < len(kept); i++ {
		err = enc.Encode(kept[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
