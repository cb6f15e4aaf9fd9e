package lifecycle

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/engine"
	"tetriserve/internal/sched"
	"tetriserve/internal/workload"
)

// Config tunes a Recorder.
type Config struct {
	// Shard names this loop in exported timelines ("" omits the field).
	Shard string
	// Capacity bounds retained finalized timelines: the newest Capacity
	// finalized requests stay queryable, older ones are evicted (active
	// requests are always retained). Default 4096.
	Capacity int
	// Sink, when set, receives every finalized timeline as one JSON line —
	// the simulator's bounded-memory span log (timelines stream out instead
	// of accumulating). Writes happen on the loop goroutine under the
	// recorder lock; give it a buffered writer.
	Sink io.Writer
	// OnFinalized observes finalized timelines synchronously (the telemetry
	// plane's phase-histogram and SLO-attainment feed). The callback must
	// not retain the timeline.
	OnFinalized func(*Timeline)
}

// Recorder assembles per-request span timelines from a control loop's hook
// stream. Hook callbacks run on the loop goroutine; lookups are safe from
// any goroutine (everything is guarded by one mutex — the hook path takes
// it briefly per transition, never blocking on I/O except the optional
// sink write at finalization).
type Recorder struct {
	mu  sync.Mutex
	cfg Config

	active  map[workload.RequestID]*Timeline
	byTrace map[string]*Timeline
	byID    map[workload.RequestID]*Timeline

	// waiting holds timelines that opened a plan-wait span no plan has
	// considered yet. onPlanComputed resolves each through
	// ctx.PendingState, so a round costs the requests that (re)joined the
	// queue since the last plan, not the queue.
	waiting []*Timeline

	// final is a ring of finalized timelines; ringAt is the next overwrite
	// position once the ring is full.
	final  []*Timeline
	ringAt int

	finalized int
	sinkErr   error

	tenants map[string]*tenantAgg
	phases  map[string]*phaseAgg
}

type tenantAgg struct{ met, done int }

type phaseAgg struct {
	planWait, queue, compute float64
	count                    int
}

// NewRecorder builds a recorder.
func NewRecorder(cfg Config) *Recorder {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 4096
	}
	return &Recorder{
		cfg:     cfg,
		active:  map[workload.RequestID]*Timeline{},
		byTrace: map[string]*Timeline{},
		byID:    map[workload.RequestID]*Timeline{},
		final:   make([]*Timeline, 0, min(cfg.Capacity, 256)),
		tenants: map[string]*tenantAgg{},
		phases:  map[string]*phaseAgg{},
	}
}

// Hooks returns the control-loop attachment; compose with Hooks.Then.
func (r *Recorder) Hooks() control.Hooks {
	return control.Hooks{
		Admitted:     r.onAdmitted,
		PlanComputed: r.onPlanComputed,
		RunStarted:   r.onRunStarted,
		RunFinished:  r.onRunFinished,
		RunAborted:   r.onRunAborted,
		RunPreempted: r.onRunPreempted,
		StepsElided:  r.onStepsElided,
		Requeued:     r.onRequeued,
		Finished:     r.onFinished,
		Dropped:      r.onDropped,
	}
}

// Lookup returns a deep copy of a timeline by trace ID or by decimal
// request ID, active or finalized. A decimal key must be the whole key:
// "12abc", " 12", "+12" and "0x1f" name no request.
func (r *Recorder) Lookup(key string) (*Timeline, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if tl, ok := r.byTrace[key]; ok {
		return tl.Clone(), true
	}
	// Atoi accepts a leading '+', which no request ID is written with.
	if id, err := strconv.Atoi(key); err == nil && key[0] != '+' {
		if tl, ok := r.byID[workload.RequestID(id)]; ok {
			return tl.Clone(), true
		}
	}
	return nil, false
}

// LookupID returns a deep copy of a timeline by request ID.
func (r *Recorder) LookupID(id workload.RequestID) (*Timeline, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if tl, ok := r.byID[id]; ok {
		return tl.Clone(), true
	}
	return nil, false
}

// Finalized reports how many timelines have been finalized (including any
// the retention ring has since evicted).
func (r *Recorder) Finalized() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.finalized
}

// SinkErr returns the first error the span-log sink reported, if any.
func (r *Recorder) SinkErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sinkErr
}

// TenantAttainment is one tenant's SLO attainment over finalized requests.
type TenantAttainment struct {
	Tenant   string  `json:"tenant"`
	Finished int     `json:"finished"`
	Met      int     `json:"met"`
	Rate     float64 `json:"rate"`
}

// ClassPhases is the accumulated phase decomposition for one resolution
// class: total seconds spent per phase across finalized requests.
type ClassPhases struct {
	Class     string  `json:"class"`
	Requests  int     `json:"requests"`
	PlanWaitS float64 `json:"plan_wait_s"`
	QueueS    float64 `json:"queue_s"`
	ComputeS  float64 `json:"compute_s"`
}

// Attainment returns per-tenant SLO attainment over finalized requests,
// sorted by tenant name.
func (r *Recorder) Attainment() []TenantAttainment {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TenantAttainment, 0, len(r.tenants))
	for name, a := range r.tenants {
		t := TenantAttainment{Tenant: name, Finished: a.done, Met: a.met}
		if a.done > 0 {
			t.Rate = float64(a.met) / float64(a.done)
		}
		out = append(out, t)
	}
	sortBy(out, func(a, b TenantAttainment) bool { return a.Tenant < b.Tenant })
	return out
}

// Phases returns the per-class phase decomposition, sorted by class name.
func (r *Recorder) Phases() []ClassPhases {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ClassPhases, 0, len(r.phases))
	for class, a := range r.phases {
		out = append(out, ClassPhases{
			Class: class, Requests: a.count,
			PlanWaitS: a.planWait, QueueS: a.queue, ComputeS: a.compute,
		})
	}
	sortBy(out, func(a, b ClassPhases) bool { return a.Class < b.Class })
	return out
}

func sortBy[T any](s []T, less func(a, b T) bool) {
	// Insertion sort: these slices are tiny (tenants, resolution classes).
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && less(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func us(d time.Duration) int64 { return d.Microseconds() }

func (r *Recorder) onAdmitted(now time.Duration, req *workload.Request) {
	r.mu.Lock()
	defer r.mu.Unlock()
	trace := req.TraceID
	if trace == "" {
		trace = fmt.Sprintf("req-%d", req.ID)
	}
	tl := &Timeline{
		TraceID:    trace,
		ID:         int(req.ID),
		Tenant:     req.Tenant,
		Class:      req.Res.String(),
		Shard:      r.cfg.Shard,
		SLOUS:      us(req.SLO),
		ArrivalUS:  us(now),
		DeadlineUS: us(req.Deadline()),
		open:       -1,
	}
	tl.Spans = append(tl.Spans, Span{Kind: SpanAdmission, StartUS: us(now), EndUS: us(now)})
	r.openPlanWait(tl, now)
	r.active[req.ID] = tl
	r.byTrace[trace] = tl
	r.byID[req.ID] = tl
}

func (r *Recorder) openSpan(tl *Timeline, kind SpanKind, at time.Duration) *Span {
	tl.Spans = append(tl.Spans, Span{Kind: kind, StartUS: us(at), EndUS: us(at)})
	tl.open = len(tl.Spans) - 1
	return &tl.Spans[tl.open]
}

// openPlanWait opens a plan-wait span and queues the timeline for the next
// plan's queue transition.
func (r *Recorder) openPlanWait(tl *Timeline, at time.Duration) {
	r.openSpan(tl, SpanPlanWait, at)
	r.waiting = append(r.waiting, tl)
}

func (r *Recorder) closeSpan(tl *Timeline, at time.Duration) {
	if tl.open < 0 {
		return
	}
	tl.Spans[tl.open].EndUS = us(at)
	tl.open = -1
}

// dropOpen removes the open span entirely (tentative plan-wait at finish).
func (r *Recorder) dropOpen(tl *Timeline) {
	if tl.open < 0 {
		return
	}
	tl.Spans = tl.Spans[:tl.open]
	tl.open = -1
}

func (r *Recorder) onPlanComputed(now, _ time.Duration, ctx *sched.PlanContext) {
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := r.waiting[:0]
	for _, tl := range r.waiting {
		if tl.Done || tl.open < 0 || tl.Spans[tl.open].Kind != SpanPlanWait {
			continue // finalized, or the wait already ended
		}
		if _, ok := ctx.PendingState(workload.RequestID(tl.ID)); !ok {
			kept = append(kept, tl)
			continue
		}
		// First plan that considered the request: plan-wait ends, queueing
		// (considered but not yet dispatched) begins.
		r.closeSpan(tl, now)
		r.openSpan(tl, SpanQueue, now)
	}
	clear(r.waiting[len(kept):])
	r.waiting = kept
}

func (r *Recorder) onRunStarted(now time.Duration, run *engine.Run) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var gpus []int
	for _, id := range run.Asg.Requests {
		tl, ok := r.active[id]
		if !ok {
			continue
		}
		r.closeSpan(tl, now)
		sp := r.openSpan(tl, SpanCompute, now)
		sp.Steps = run.Steps[id]
		sp.Degree = run.Degree
		sp.Batched = run.Batched
		if gpus == nil {
			for _, g := range run.Asg.Group.IDs() {
				gpus = append(gpus, int(g))
			}
		}
		sp.GPUs = gpus
	}
}

// endCompute closes every member's compute segment at `at`, tagging an
// abnormal cause ("fault"/"resize") when the block did not retire cleanly.
func (r *Recorder) endCompute(at time.Duration, run *engine.Run, cause string) {
	for _, id := range run.Asg.Requests {
		tl, ok := r.active[id]
		if !ok || tl.open < 0 || tl.Spans[tl.open].Kind != SpanCompute {
			continue
		}
		tl.Spans[tl.open].Cause = cause
		r.closeSpan(tl, at)
	}
}

func (r *Recorder) onRunFinished(_ time.Duration, run *engine.Run) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.endCompute(run.End, run, "")
	// A member with steps left goes straight back to pending with no hook of
	// its own; open a tentative plan-wait span — Finished/Dropped (which fire
	// synchronously for retiring members) discard it.
	for _, id := range run.Asg.Requests {
		if tl, ok := r.active[id]; ok && tl.open < 0 {
			r.openPlanWait(tl, run.End)
		}
	}
}

func (r *Recorder) onRunAborted(now time.Duration, run *engine.Run, _ map[workload.RequestID]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.endCompute(now, run, string(control.RequeueFault))
}

func (r *Recorder) onRunPreempted(now time.Duration, run *engine.Run, _ map[workload.RequestID]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.endCompute(now, run, string(control.RequeueResize))
	for _, id := range run.Asg.Requests {
		if tl, ok := r.active[id]; ok {
			tl.Spans = append(tl.Spans, Span{Kind: SpanPreempted, StartUS: us(now), EndUS: us(now)})
		}
	}
}

func (r *Recorder) onStepsElided(_ time.Duration, id workload.RequestID, approx int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tl, ok := r.active[id]
	if !ok {
		return
	}
	tl.ElidedSteps += approx
	// Attach to the most recent compute segment (already closed by the run
	// retirement that fired just before this credit).
	for i := len(tl.Spans) - 1; i >= 0; i-- {
		if tl.Spans[i].Kind == SpanCompute {
			tl.Spans[i].ElidedSteps += approx
			return
		}
	}
}

func (r *Recorder) onRequeued(now time.Duration, id workload.RequestID, cause control.RequeueCause) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tl, ok := r.active[id]
	if !ok {
		return
	}
	tl.Spans = append(tl.Spans, Span{Kind: SpanRequeued, StartUS: us(now), EndUS: us(now), Cause: string(cause)})
	tl.open = -1
	r.openPlanWait(tl, now)
}

func (r *Recorder) onFinished(_ time.Duration, o control.Outcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tl, ok := r.active[o.ID]
	if !ok {
		return
	}
	r.dropOpen(tl)
	tl.Spans = append(tl.Spans, Span{Kind: SpanFinish, StartUS: us(o.Completion), EndUS: us(o.Completion)})
	tl.CompletedUS = us(o.Completion)
	tl.Met = o.Met
	r.finalize(tl)
}

func (r *Recorder) onDropped(now time.Duration, o control.Outcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tl, ok := r.active[o.ID]
	if !ok {
		return
	}
	r.closeSpan(tl, now)
	tl.Spans = append(tl.Spans, Span{Kind: SpanDrop, StartUS: us(now), EndUS: us(now), Cause: string(o.Cause)})
	tl.Dropped = true
	tl.Cause = string(o.Cause)
	r.finalize(tl)
}

// finalize prunes zero-length wait spans, updates the aggregates, streams
// the timeline to the sink, and moves it into the bounded retention ring.
// Caller holds r.mu.
func (r *Recorder) finalize(tl *Timeline) {
	kept := tl.Spans[:0]
	for _, s := range tl.Spans {
		if (s.Kind == SpanPlanWait || s.Kind == SpanQueue) && s.StartUS == s.EndUS {
			continue
		}
		kept = append(kept, s)
	}
	tl.Spans = kept
	tl.Done = true
	delete(r.active, workload.RequestID(tl.ID))
	r.finalized++

	ta := r.tenants[tl.Tenant]
	if ta == nil {
		ta = &tenantAgg{}
		r.tenants[tl.Tenant] = ta
	}
	ta.done++
	if tl.Met {
		ta.met++
	}
	pa := r.phases[tl.Class]
	if pa == nil {
		pa = &phaseAgg{}
		r.phases[tl.Class] = pa
	}
	pa.count++
	for kind, secs := range tl.PhaseSeconds() {
		switch kind {
		case SpanPlanWait:
			pa.planWait += secs
		case SpanQueue:
			pa.queue += secs
		case SpanCompute:
			pa.compute += secs
		}
	}

	if r.cfg.OnFinalized != nil {
		r.cfg.OnFinalized(tl)
	}
	if r.cfg.Sink != nil && r.sinkErr == nil {
		if data, err := json.Marshal(tl); err != nil {
			r.sinkErr = err
		} else if _, err := r.cfg.Sink.Write(append(data, '\n')); err != nil {
			r.sinkErr = err
		}
	}

	if len(r.final) < r.cfg.Capacity {
		r.final = append(r.final, tl)
		return
	}
	old := r.final[r.ringAt]
	r.final[r.ringAt] = tl
	r.ringAt = (r.ringAt + 1) % r.cfg.Capacity
	// Evict the overwritten timeline from the lookup maps — unless a newer
	// timeline already claimed the same key.
	if r.byTrace[old.TraceID] == old {
		delete(r.byTrace, old.TraceID)
	}
	if r.byID[workload.RequestID(old.ID)] == old {
		delete(r.byID, workload.RequestID(old.ID))
	}
}
