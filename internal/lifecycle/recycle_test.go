package lifecycle

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/engine"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

// hookStream drives one deterministic, loop-shaped hook sequence for n
// requests: arrivals interleave with plans, some of which list only part
// of the queue; blocks of one or two members run on varying GPU groups and
// retire, abort on a fault or are preempted by a resize, with requeues and
// cache credits; and drops hit queued requests, often before any plan has
// closed their plan-wait.
func hookStream(h control.Hooks, n int) {
	rng := rand.New(rand.NewPCG(1, 2))
	classes := []model.Resolution{model.Res256, model.Res512, model.Res1024}
	tenants := []string{"", "gold", "bronze"}
	groups := []simgpu.Mask{simgpu.MaskOf(0), simgpu.MaskOf(1), simgpu.MaskOf(0, 1), simgpu.MaskOf(2, 3)}
	type queued struct {
		r    *workload.Request
		left int
	}
	var pending []*queued
	at := time.Duration(0)
	for id := 1; id <= n || len(pending) > 0; {
		if rng.IntN(2) == 0 {
			at += ms
		}
		for k := rng.IntN(3); k > 0 && id <= n; k-- {
			r := &workload.Request{
				ID: workload.RequestID(id), Res: classes[rng.IntN(len(classes))], Steps: 1 + rng.IntN(6),
				Arrival: at, SLO: 50 * ms, Tenant: tenants[rng.IntN(len(tenants))],
			}
			if rng.IntN(2) == 0 {
				r.TraceID = fmt.Sprintf("t-%d", id)
			}
			id++
			h.Admitted(at, r)
			pending = append(pending, &queued{r: r, left: r.Steps})
		}
		if len(pending) > 0 && rng.IntN(8) == 0 {
			i := rng.IntN(len(pending))
			h.Dropped(at, control.Outcome{ID: pending[i].r.ID, Dropped: true, Cause: control.DropExpired})
			pending = slices.Delete(pending, i, i+1)
		}
		if len(pending) == 0 {
			continue
		}
		listed := pending
		if rng.IntN(4) == 0 {
			listed = pending[:(len(pending)+1)/2]
		}
		ctx := &sched.PlanContext{Now: at}
		for _, q := range listed {
			ctx.Pending = append(ctx.Pending, &sched.RequestState{Req: q.r, Remaining: q.left})
		}
		h.PlanComputed(at, 0, ctx)
		if rng.IntN(2) == 0 {
			at += ms
		}

		block := slices.Clone(pending[:min(len(pending), 1+rng.IntN(2))])
		pending = pending[len(block):]
		run := &engine.Run{
			Asg:     sched.Assignment{Group: groups[rng.IntN(len(groups))]},
			Start:   at,
			End:     at + 2*ms,
			Steps:   map[workload.RequestID]int{},
			Degree:  1 + rng.IntN(2),
			Batched: len(block) > 1,
		}
		for _, q := range block {
			run.Asg.Requests = append(run.Asg.Requests, q.r.ID)
			run.Steps[q.r.ID] = min(q.left, 2)
		}
		h.RunStarted(at, run)
		switch rng.IntN(10) {
		case 0, 1:
			at += ms
			cause := control.RequeueFault
			if rng.IntN(2) == 0 {
				h.RunAborted(at, run, nil)
			} else {
				h.RunPreempted(at, run, nil)
				cause = control.RequeueResize
			}
			for _, q := range block {
				h.Requeued(at, q.r.ID, cause)
				pending = append(pending, q)
			}
		default:
			at = run.End
			h.RunFinished(at, run)
			for _, q := range block {
				q.left -= run.Steps[q.r.ID]
				if rng.IntN(3) == 0 {
					h.StepsElided(at, q.r.ID, 1)
				}
				if q.left > 0 {
					pending = append(pending, q)
					continue
				}
				h.Finished(at, control.Outcome{ID: q.r.ID, Completion: at, Met: rng.IntN(2) == 0})
			}
		}
	}
}

// TestRecyclingKeepsOutputs feeds one hook stream to recorders whose rings
// hold 1, 2 and 4 timelines, so that nearly every admission reuses an
// evicted timeline, and to one that never evicts: the span log, the phase
// decomposition and the attainment must not differ.
func TestRecyclingKeepsOutputs(t *testing.T) {
	const n = 300
	record := func(capacity int) (string, string) {
		var log bytes.Buffer
		rec := NewRecorder(Config{Shard: "s0", Capacity: capacity, Sink: &log})
		hookStream(rec.Hooks(), n)
		if err := rec.SinkErr(); err != nil {
			t.Fatalf("capacity %d: sink error: %v", capacity, err)
		}
		if got := rec.Finalized(); got != n {
			t.Fatalf("capacity %d: finalized %d of %d requests", capacity, got, n)
		}
		return log.String(), fmt.Sprintf("%+v %+v", rec.Phases(), rec.Attainment())
	}
	wantLog, wantAgg := record(n)
	for _, capacity := range []int{1, 2, 4} {
		log, agg := record(capacity)
		if log != wantLog {
			t.Errorf("capacity %d: span log differs from the unbounded recorder's", capacity)
		}
		if agg != wantAgg {
			t.Errorf("capacity %d: aggregates\n got %s\nwant %s", capacity, agg, wantAgg)
		}
	}
}

// TestLookupsDuringHooks reads timelines and aggregates from another
// goroutine while the hook stream runs through a small ring with a sink,
// so the race detector sees lookups, rendering and reuse interleave.
func TestLookupsDuringHooks(t *testing.T) {
	var log bytes.Buffer
	rec := NewRecorder(Config{Capacity: 4, Sink: &log})
	done := make(chan struct{})
	go func() {
		defer close(done)
		hookStream(rec.Hooks(), 300)
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		for id := 1; id <= 300; id += 7 {
			if tl, ok := rec.LookupID(workload.RequestID(id)); ok && tl.ID != id {
				t.Fatalf("LookupID(%d) returned request %d", id, tl.ID)
			}
			rec.Lookup(fmt.Sprintf("t-%d", id))
		}
		rec.Phases()
		rec.Attainment()
	}
}

// TestEvictedKeysNotFound: once the ring evicts a timeline, neither of the
// old request's keys resolves, a new admission takes the slot a finalized
// timeline handed back, and a copy taken before the eviction is unaffected.
func TestEvictedKeysNotFound(t *testing.T) {
	rec := NewRecorder(Config{Capacity: 1})
	h := rec.Hooks()
	fs := fixtures(3)
	fs[0].serve(h, 0)
	held, ok := rec.Lookup("t-1")
	if !ok {
		t.Fatal("t-1 missing before eviction")
	}
	want := fmt.Sprintf("%+v", *held)
	rec.mu.Lock()
	slot := rec.acts[0]
	rec.mu.Unlock()

	fs[1].serve(h, 10*ms) // evicts request 1
	h.Admitted(20*ms, fs[2].req)
	rec.mu.Lock()
	reused := len(rec.acts) == 1 && rec.acts[0] == slot && slot.hdr.id == 3
	rec.mu.Unlock()
	if !reused {
		t.Fatal("request 3 did not take the slot the finalized timelines handed back")
	}

	for _, key := range []string{"t-1", "1"} {
		if tl, ok := rec.Lookup(key); ok {
			t.Errorf("Lookup(%q) = request %d, want not found", key, tl.ID)
		}
	}
	if tl, ok := rec.LookupID(1); ok {
		t.Errorf("LookupID(1) = request %d, want not found", tl.ID)
	}
	if tl, ok := rec.Lookup("t-3"); !ok || tl.ID != 3 || tl.Done {
		t.Errorf("Lookup(t-3) = %+v, %v; want active request 3", tl, ok)
	}
	if got := fmt.Sprintf("%+v", *held); got != want {
		t.Errorf("copy taken before the eviction changed:\n got %s\nwant %s", got, want)
	}
}

// TestFinalizedWhileWaitingIsNotReused: a request dropped before any plan
// considered it is finalized while the waiting list still names its slot.
// The next admissions take that slot; the stale entries must not match
// them, or the next plan would process the newest request more than once.
func TestFinalizedWhileWaitingIsNotReused(t *testing.T) {
	rec := NewRecorder(Config{Capacity: 1})
	h := rec.Hooks()
	a, b, c := req(1, "a", ""), req(2, "b", ""), req(3, "c", "")
	h.Admitted(1*ms, a)
	h.Dropped(2*ms, control.Outcome{ID: a.ID, Dropped: true, Cause: control.DropExpired})
	h.Admitted(3*ms, b)
	h.Dropped(4*ms, control.Outcome{ID: b.ID, Dropped: true, Cause: control.DropExpired}) // evicts a
	h.Admitted(5*ms, c)

	rec.mu.Lock()
	live := 0
	for _, w := range rec.waiting {
		if rec.acts[w.slot].gen == w.gen {
			live++
		}
	}
	rec.mu.Unlock()
	if live != 1 {
		t.Errorf("waiting list matches %d live timelines, want 1 (request c)", live)
	}

	planConsidering(h, 6*ms, c)
	tl, ok := rec.Lookup("c")
	if !ok {
		t.Fatal("timeline c missing")
	}
	want := fmt.Sprintf("%+v", []Span{{Kind: SpanAdmission, StartUS: 5000, EndUS: 5000},
		{Kind: SpanPlanWait, StartUS: 5000, EndUS: 6000}, {Kind: SpanQueue, StartUS: 6000, EndUS: 6000}})
	if got := fmt.Sprintf("%+v", tl.Spans); got != want {
		t.Errorf("c spans:\n got %s\nwant %s", got, want)
	}
}

// requestFixture is one request's hook inputs, built ahead so that driving
// them allocates nothing on the caller's side.
type requestFixture struct {
	req *workload.Request
	ctx *sched.PlanContext
	run *engine.Run
}

// fixtures builds n requests with IDs 1..n and trace IDs t-1..t-n.
func fixtures(n int) []requestFixture {
	fs := make([]requestFixture, n)
	for i := range fs {
		r := req(workload.RequestID(i+1), fmt.Sprintf("t-%d", i+1), "gold")
		fs[i] = requestFixture{
			req: r,
			ctx: &sched.PlanContext{Pending: []*sched.RequestState{{Req: r, Remaining: r.Steps}}},
			run: runFor(r, 0, 0),
		}
	}
	return fs
}

// serve drives the request's hook sequence from at: admit, a plan that
// considers it, one block, finish — five spans.
func (f requestFixture) serve(h control.Hooks, at time.Duration) {
	f.serveRounds(h, at, 1)
}

// deepRounds is the number of blocks serveRounds runs for a 30-span
// timeline: admission and plan-wait, then queue, compute and a plan-wait
// per block, a fault's requeued marker, and the finish.
const deepRounds = 9

// serveRounds drives the request through `rounds` blocks from at, each
// after a plan that considers it. With more than four rounds the fifth
// block aborts on a fault and the request is requeued. A timeline has
// 3·rounds+2 spans, one more with the fault.
func (f requestFixture) serveRounds(h control.Hooks, at time.Duration, rounds int) {
	h.Admitted(at, f.req)
	for round := 0; round < rounds; round++ {
		h.PlanComputed(at+ms, 0, f.ctx)
		f.run.Start, f.run.End = at+2*ms, at+5*ms
		h.RunStarted(f.run.Start, f.run)
		at = f.run.End
		if round == 4 {
			h.RunAborted(at, f.run, nil)
			h.Requeued(at, f.req.ID, control.RequeueFault)
			continue
		}
		h.RunFinished(at, f.run)
	}
	h.Finished(at, control.Outcome{ID: f.req.ID, Completion: at, Met: true})
}

// steadyRecorder returns a recorder whose ring has filled and wrapped, and
// a function serving one more request of `rounds` blocks per call.
// Requests cycle through twice the ring's size, so a request's ID and
// trace ID come back only after its previous timeline was evicted.
func steadyRecorder(rounds int) (*Recorder, func()) {
	const capacity = 64
	rec := NewRecorder(Config{Capacity: capacity})
	h := rec.Hooks()
	fs := fixtures(2 * capacity)
	i := 0
	next := func() {
		fs[i%len(fs)].serveRounds(h, time.Duration(i)*100*ms, rounds)
		i++
	}
	for i < 2*len(fs) {
		next()
	}
	return rec, next
}

// growingRecorder returns a recorder whose ring holds every one of n
// distinct requests, warmed by a few, and a function serving the next
// request per call: the sim-backlog case, where the ring never fills.
func growingRecorder(n int) func() {
	rec := NewRecorder(Config{Capacity: n})
	h := rec.Hooks()
	fs := fixtures(n)
	i := 0
	next := func() {
		fs[i].serve(h, time.Duration(i)*10*ms)
		i++
	}
	for i < 16 {
		next()
	}
	return next
}

// TestHookPathAllocFree: once the ring is full, a request's whole hook
// sequence allocates nothing, whether its timeline fits the inline spans
// or outgrows them into a buffer a finalized timeline handed back. While
// the ring is still filling, only its amortized growth — a chunk of
// headers, trace IDs or spans, a lookup map outgrowing its table — may
// allocate, well under once per request.
func TestHookPathAllocFree(t *testing.T) {
	for _, rounds := range []int{1, deepRounds} {
		_, next := steadyRecorder(rounds)
		if got := testing.AllocsPerRun(200, next); got != 0 {
			t.Fatalf("full ring, %d blocks: one request's hooks allocate %v times, want 0", rounds, got)
		}
	}
	// A recorder that allocated a timeline per admission made two
	// allocations per request here; the growing store makes about one per
	// 17 (118 for 2 048 requests, Go 1.24, linux/amd64).
	const requests = 2048
	next := growingRecorder(requests + 16)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		next()
	}
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	t.Logf("filling ring: %d allocations for %d requests", allocs, requests)
	if allocs > requests/8 {
		t.Fatalf("filling ring: %d requests' hooks allocate %d times, want at most %d", requests, allocs, requests/8)
	}
}

// TestDeepTimelineSpans: a timeline that outgrows the inline spans keeps
// every span through the move to a buffer and into the store.
func TestDeepTimelineSpans(t *testing.T) {
	rec, _ := steadyRecorder(deepRounds)
	tl, ok := rec.Lookup("t-128")
	if !ok {
		t.Fatal("t-128 missing")
	}
	if len(tl.Spans) != 3*deepRounds+3 {
		t.Fatalf("got %d spans, want %d: %+v", len(tl.Spans), 3*deepRounds+3, tl.Spans)
	}
	var kinds []string
	for _, s := range tl.Spans[:8] {
		kinds = append(kinds, string(s.Kind))
	}
	if got, want := fmt.Sprint(kinds), "[admission plan-wait queue compute plan-wait queue compute plan-wait]"; got != want {
		t.Errorf("first spans %s, want %s", got, want)
	}
	if s := tl.Spans[3*4+3]; s.Kind != SpanCompute || s.Cause != "fault" {
		t.Errorf("fifth block's span = %+v, want a compute segment ending on a fault", s)
	}
	if s := tl.Spans[3*4+4]; s.Kind != SpanRequeued {
		t.Errorf("span after the fault = %+v, want requeued", s)
	}
	if s := tl.Spans[len(tl.Spans)-1]; s.Kind != SpanFinish {
		t.Errorf("last span = %+v, want finish", s)
	}
}

// BenchmarkRecorderRequest times one request's hook sequence on a recorder
// whose ring is full.
func BenchmarkRecorderRequest(b *testing.B) {
	_, next := steadyRecorder(1)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		next()
	}
}

// BenchmarkRecorderDeepTimeline times one 30-span request's hook sequence
// — nine blocks and a fault — on a recorder whose ring is full: the
// sim-backlog timeline, which outgrows the inline spans.
func BenchmarkRecorderDeepTimeline(b *testing.B) {
	_, next := steadyRecorder(deepRounds)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		next()
	}
}

// BenchmarkRecorderLookup times the read a timeline query makes: Lookup of
// a finalized eight-span timeline by trace ID, rendered and cloned.
func BenchmarkRecorderLookup(b *testing.B) {
	rec, _ := steadyRecorder(2)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, ok := rec.Lookup("t-100"); !ok {
			b.Fatal("t-100 missing")
		}
	}
}
