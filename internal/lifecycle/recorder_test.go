package lifecycle

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/engine"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

const ms = time.Millisecond

func req(id workload.RequestID, trace, tenant string) *workload.Request {
	return &workload.Request{
		ID:      id,
		Res:     model.Res512,
		Steps:   4,
		Arrival: 1 * ms,
		SLO:     100 * ms,
		TraceID: trace,
		Tenant:  tenant,
	}
}

func runFor(r *workload.Request, start, end time.Duration) *engine.Run {
	return &engine.Run{
		Asg: sched.Assignment{
			Requests: []workload.RequestID{r.ID},
			Group:    simgpu.MaskOf(0, 1),
			Steps:    r.Steps,
		},
		Start:   start,
		End:     end,
		Steps:   map[workload.RequestID]int{r.ID: r.Steps},
		Degree:  2,
		Batched: false,
	}
}

// planConsidering simulates a PlanComputed whose context lists r as pending.
func planConsidering(h control.Hooks, at time.Duration, r *workload.Request) {
	h.PlanComputed(at, 0, &sched.PlanContext{
		Now:     at,
		Pending: []*sched.RequestState{{Req: r, Remaining: r.Steps}},
	})
}

// TestHappyPathTimeline drives the canonical hook sequence and checks the
// resulting span structure: admission, plan-wait, queue, compute, finish.
func TestHappyPathTimeline(t *testing.T) {
	rec := NewRecorder(Config{Shard: "s0"})
	h := rec.Hooks()
	r := req(7, "t-1", "acme")

	h.Admitted(1*ms, r)
	planConsidering(h, 2*ms, r)
	run := runFor(r, 3*ms, 9*ms)
	h.RunStarted(3*ms, run)
	h.RunFinished(9*ms, run)
	h.StepsElided(9*ms, r.ID, 2)
	h.Finished(9*ms, control.Outcome{ID: r.ID, Completion: 9 * ms, Met: true})

	tl, ok := rec.Lookup("t-1")
	if !ok {
		t.Fatal("timeline not found by trace id")
	}
	wantKinds := []SpanKind{SpanAdmission, SpanPlanWait, SpanQueue, SpanCompute, SpanFinish}
	if len(tl.Spans) != len(wantKinds) {
		t.Fatalf("got %d spans, want %d: %+v", len(tl.Spans), len(wantKinds), tl.Spans)
	}
	for i, k := range wantKinds {
		if tl.Spans[i].Kind != k {
			t.Errorf("span %d kind = %s, want %s", i, tl.Spans[i].Kind, k)
		}
	}
	if !tl.Done || tl.Dropped || !tl.Met {
		t.Errorf("Done=%v Dropped=%v Met=%v, want true/false/true", tl.Done, tl.Dropped, tl.Met)
	}
	compute := tl.Spans[3]
	if compute.Steps != 4 || compute.Degree != 2 || compute.ElidedSteps != 2 {
		t.Errorf("compute annotations = %+v, want steps=4 degree=2 elided=2", compute)
	}
	if len(compute.GPUs) != 2 {
		t.Errorf("compute GPUs = %v, want 2 entries", compute.GPUs)
	}
	if tl.ElidedSteps != 2 {
		t.Errorf("timeline ElidedSteps = %d, want 2", tl.ElidedSteps)
	}
	ph := tl.PhaseSeconds()
	if got := ph[SpanPlanWait]; got != (1 * ms).Seconds() {
		t.Errorf("plan-wait = %vs, want 1ms", got)
	}
	if got := ph[SpanQueue]; got != (1 * ms).Seconds() {
		t.Errorf("queue = %vs, want 1ms", got)
	}
	if got := ph[SpanCompute]; got != (6 * ms).Seconds() {
		t.Errorf("compute = %vs, want 6ms", got)
	}

	// Lookup by decimal request id resolves the same timeline.
	byID, ok := rec.Lookup("7")
	if !ok || byID.TraceID != "t-1" {
		t.Fatalf("lookup by id: ok=%v trace=%q", ok, byID.TraceID)
	}
	// A decimal key must be the whole key: leftover input, whitespace, a
	// sign or another base names no request.
	for _, key := range []string{"7abc", " 7", "7 ", "+7", "0x7", "", "7.0"} {
		if _, ok := rec.Lookup(key); ok {
			t.Errorf("Lookup(%q) resolved a timeline, want not found", key)
		}
	}
}

// TestZeroLengthWaitsPruned checks that a request scheduled at the same
// instant it was considered loses its zero-length queue span at finalize.
func TestZeroLengthWaitsPruned(t *testing.T) {
	rec := NewRecorder(Config{})
	h := rec.Hooks()
	r := req(1, "", "")

	h.Admitted(1*ms, r)
	planConsidering(h, 2*ms, r) // plan-wait 1ms, queue opens at 2ms
	run := runFor(r, 2*ms, 8*ms)
	h.RunStarted(2*ms, run) // queue closes at 2ms: zero-length
	h.RunFinished(8*ms, run)
	h.Finished(8*ms, control.Outcome{ID: r.ID, Completion: 8 * ms, Met: true})

	tl, ok := rec.Lookup("req-1") // derived trace id
	if !ok {
		t.Fatal("derived trace id req-1 not found")
	}
	for _, s := range tl.Spans {
		if s.Kind == SpanQueue {
			t.Errorf("zero-length queue span survived finalize: %+v", s)
		}
	}
}

// TestRequeueAndPreemption checks fault and resize interruption markers.
func TestRequeueAndPreemption(t *testing.T) {
	rec := NewRecorder(Config{})
	h := rec.Hooks()
	r := req(3, "t-9", "")

	h.Admitted(1*ms, r)
	planConsidering(h, 2*ms, r)
	run := runFor(r, 3*ms, 20*ms)
	h.RunStarted(3*ms, run)
	// Elastic resize preempts the block mid-flight at 5ms.
	h.RunPreempted(5*ms, run, map[workload.RequestID]int{r.ID: 1})
	h.Requeued(5*ms, r.ID, control.RequeueResize)
	planConsidering(h, 6*ms, r)
	run2 := runFor(r, 7*ms, 12*ms)
	h.RunStarted(7*ms, run2)
	// GPU fault aborts the second segment at 9ms.
	h.RunAborted(9*ms, run2, map[workload.RequestID]int{r.ID: 1})
	h.Requeued(9*ms, r.ID, control.RequeueFault)
	planConsidering(h, 10*ms, r)
	h.Dropped(11*ms, control.Outcome{ID: r.ID, Dropped: true, Cause: control.DropExpired})

	tl, ok := rec.Lookup("t-9")
	if !ok {
		t.Fatal("timeline not found")
	}
	var kinds []string
	for _, s := range tl.Spans {
		kinds = append(kinds, string(s.Kind))
	}
	want := []string{
		"admission", "plan-wait", "queue", "compute", "preempted", "requeued",
		"plan-wait", "queue", "compute", "requeued", "plan-wait", "queue", "drop",
	}
	if got := strings.Join(kinds, ","); got != strings.Join(want, ",") {
		t.Fatalf("span kinds\n got %s\nwant %s", got, strings.Join(want, ","))
	}
	if c := tl.Spans[3].Cause; c != "resize" {
		t.Errorf("first compute cause = %q, want resize", c)
	}
	if c := tl.Spans[5].Cause; c != "resize" {
		t.Errorf("first requeue cause = %q, want resize", c)
	}
	if c := tl.Spans[8].Cause; c != "fault" {
		t.Errorf("second compute cause = %q, want fault", c)
	}
	if c := tl.Spans[9].Cause; c != "fault" {
		t.Errorf("second requeue cause = %q, want fault", c)
	}
	if !tl.Dropped || tl.Met {
		t.Errorf("Dropped=%v Met=%v, want true/false", tl.Dropped, tl.Met)
	}
}

// TestRunningWhileComputeOpen: a timeline reads Running exactly while its
// compute segment is open, so a fault victim between RunAborted and
// Requeued (its last span a closed compute segment, here of zero length)
// is not running. Res is the admitted resolution throughout.
func TestRunningWhileComputeOpen(t *testing.T) {
	rec := NewRecorder(Config{})
	h := rec.Hooks()
	r := req(4, "t-4", "")
	r.Res = model.Res256
	step := func(name string, want bool) {
		t.Helper()
		tl, ok := rec.LookupID(r.ID)
		if !ok {
			t.Fatalf("%s: timeline not found", name)
		}
		if tl.Running != want {
			t.Errorf("%s: Running = %v, want %v (spans %+v)", name, tl.Running, want, tl.Spans)
		}
		if tl.Res != model.Res256 {
			t.Errorf("%s: Res = %v, want %v", name, tl.Res, model.Res256)
		}
	}

	h.Admitted(1*ms, r)
	step("admitted", false)
	planConsidering(h, 2*ms, r)
	run := runFor(r, 3*ms, 3*ms)
	h.RunStarted(3*ms, run)
	step("run started", true)
	h.RunAborted(3*ms, run, map[workload.RequestID]int{r.ID: 0})
	if tl, _ := rec.LookupID(r.ID); tl.Spans[len(tl.Spans)-1].Kind != SpanCompute {
		t.Fatalf("aborted victim's last span is %q, want the closed compute segment", tl.Spans[len(tl.Spans)-1].Kind)
	}
	step("run aborted", false)
	h.Requeued(3*ms, r.ID, control.RequeueFault)
	step("requeued", false)
	run = runFor(r, 4*ms, 6*ms)
	run.Steps[r.ID] = 2
	h.RunStarted(4*ms, run)
	step("second run started", true)
	h.RunFinished(6*ms, run)
	step("run finished with steps left", false)
	run = runFor(r, 7*ms, 9*ms)
	h.RunStarted(7*ms, run)
	step("third run started", true)
	h.RunPreempted(8*ms, run, map[workload.RequestID]int{r.ID: 1})
	step("run preempted", false)
	h.Requeued(8*ms, r.ID, control.RequeueResize)
	h.Finished(10*ms, control.Outcome{ID: r.ID, Completion: 10 * ms, Met: true})
	step("finished", false)
}

// TestRetentionRingBounds finalizes more timelines than Capacity and checks
// that memory (the ring and both lookup maps) stays bounded while the
// finalized counter keeps the true total.
func TestRetentionRingBounds(t *testing.T) {
	const capacity = 8
	rec := NewRecorder(Config{Capacity: capacity})
	h := rec.Hooks()
	for i := 1; i <= 3*capacity; i++ {
		r := req(workload.RequestID(i), fmt.Sprintf("t-%d", i), "")
		at := time.Duration(i) * ms
		h.Admitted(at, r)
		planConsidering(h, at+ms/2, r)
		run := runFor(r, at+ms, at+2*ms)
		h.RunStarted(at+ms, run)
		h.RunFinished(at+2*ms, run)
		h.Finished(at+2*ms, control.Outcome{ID: r.ID, Completion: at + 2*ms, Met: true})
	}
	if got := rec.Finalized(); got != 3*capacity {
		t.Errorf("Finalized() = %d, want %d", got, 3*capacity)
	}
	rec.mu.Lock()
	hdrs, traces, ids := rec.hdrs.len(), len(rec.byTrace), len(rec.byID)
	spans, chunks := rec.spans.len(), len(rec.spans.chunks)+len(rec.spans.spare)
	rec.mu.Unlock()
	if hdrs != capacity || traces != capacity || ids != capacity {
		t.Errorf("headers=%d byTrace=%d byID=%d, want all %d", hdrs, traces, ids, capacity)
	}
	// The store holds the retained timelines' five spans each, and its
	// span queue, never longer than one chunk, has never needed another.
	if spans != 5*capacity || chunks != 1 {
		t.Errorf("span queue holds %d spans in %d chunks, want %d in 1", spans, chunks, 5*capacity)
	}
	// Oldest evicted, newest retained.
	if _, ok := rec.Lookup("t-1"); ok {
		t.Error("t-1 should have been evicted")
	}
	if _, ok := rec.Lookup(fmt.Sprintf("t-%d", 3*capacity)); !ok {
		t.Error("newest timeline missing")
	}
}

// TestSinkStreamsJSONL checks the span-log sink receives one valid JSON line
// per finalized timeline, even for timelines beyond the retention ring.
func TestSinkStreamsJSONL(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(Config{Capacity: 2, Sink: &buf})
	h := rec.Hooks()
	for i := 1; i <= 5; i++ {
		r := req(workload.RequestID(i), "", "team")
		at := time.Duration(i) * ms
		h.Admitted(at, r)
		planConsidering(h, at+ms/2, r)
		run := runFor(r, at+ms, at+2*ms)
		h.RunStarted(at+ms, run)
		h.RunFinished(at+2*ms, run)
		h.Finished(at+2*ms, control.Outcome{ID: r.ID, Completion: at + 2*ms, Met: i%2 == 0})
	}
	if err := rec.SinkErr(); err != nil {
		t.Fatalf("sink error: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("sink got %d lines, want 5", len(lines))
	}
	for i, line := range lines {
		var tl Timeline
		if err := json.Unmarshal([]byte(line), &tl); err != nil {
			t.Fatalf("line %d not valid JSON: %v", i, err)
		}
		if tl.TraceID != fmt.Sprintf("req-%d", i+1) {
			t.Errorf("line %d trace = %q, want req-%d", i, tl.TraceID, i+1)
		}
		if !tl.Done {
			t.Errorf("line %d not marked done", i)
		}
	}

	att := rec.Attainment()
	if len(att) != 1 || att[0].Tenant != "team" || att[0].Finished != 5 || att[0].Met != 2 {
		t.Errorf("attainment = %+v, want team 2/5", att)
	}
	ph := rec.Phases()
	if len(ph) != 1 || ph[0].Requests != 5 {
		t.Errorf("phases = %+v, want one class with 5 requests", ph)
	}
}

// TestPlanWaitEndsAtFirstPlanListingTheRequest: a plan whose context does
// not list a waiting request leaves its plan-wait open; the first plan that
// lists it — through a scan of Pending or through the loop's tracker —
// closes it. A requeue re-arms the transition for the next plan.
func TestPlanWaitEndsAtFirstPlanListingTheRequest(t *testing.T) {
	rec := NewRecorder(Config{})
	h := rec.Hooks()
	a, b := req(1, "a", ""), req(2, "b", "")
	h.Admitted(1*ms, a)
	h.Admitted(1*ms, b)
	stA := &sched.RequestState{Req: a, Remaining: a.Steps}
	stB := &sched.RequestState{Req: b, Remaining: b.Steps}

	// A plan that lists only a.
	h.PlanComputed(2*ms, 0, &sched.PlanContext{Now: 2 * ms, Pending: []*sched.RequestState{stA}})
	// The next plan lists both, through the tracker.
	h.PlanComputed(5*ms, 0, &sched.PlanContext{
		Now:     5 * ms,
		Pending: []*sched.RequestState{stA, stB},
		Tracked: map[workload.RequestID]*sched.RequestState{1: stA, 2: stB},
	})
	run := runFor(b, 6*ms, 9*ms)
	h.RunStarted(6*ms, run)
	h.RunAborted(7*ms, run, nil)
	h.Requeued(7*ms, b.ID, control.RequeueFault)
	// b is running elsewhere in the tracker's view, so this plan does not
	// list it; the one after does.
	stB.Running = true
	h.PlanComputed(8*ms, 0, &sched.PlanContext{
		Now:     8 * ms,
		Pending: []*sched.RequestState{stA},
		Tracked: map[workload.RequestID]*sched.RequestState{1: stA, 2: stB},
	})
	stB.Running = false
	planConsidering(h, 10*ms, b)

	want := map[string][]Span{
		"a": {{Kind: SpanAdmission, StartUS: 1000, EndUS: 1000}, {Kind: SpanPlanWait, StartUS: 1000, EndUS: 2000},
			{Kind: SpanQueue, StartUS: 2000, EndUS: 2000}},
		"b": {{Kind: SpanAdmission, StartUS: 1000, EndUS: 1000}, {Kind: SpanPlanWait, StartUS: 1000, EndUS: 5000},
			{Kind: SpanQueue, StartUS: 5000, EndUS: 6000}, {Kind: SpanCompute, StartUS: 6000, EndUS: 7000, Steps: 4, Degree: 2, GPUs: []int{0, 1}, Cause: "fault"},
			{Kind: SpanRequeued, StartUS: 7000, EndUS: 7000, Cause: "fault"}, {Kind: SpanPlanWait, StartUS: 7000, EndUS: 10000},
			{Kind: SpanQueue, StartUS: 10000, EndUS: 10000}},
	}
	for key, spans := range want {
		tl, ok := rec.Lookup(key)
		if !ok {
			t.Fatalf("timeline %s missing", key)
		}
		if got, want := fmt.Sprintf("%+v", tl.Spans), fmt.Sprintf("%+v", spans); got != want {
			t.Errorf("%s spans:\n got %s\nwant %s", key, got, want)
		}
	}
}
