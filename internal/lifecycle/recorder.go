package lifecycle

import (
	"encoding/json"
	"io"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/engine"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/simgpu"
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
	// recorder lock; give it a buffered writer. As io.Writer requires, it
	// must not retain the bytes it is handed: the encoder reuses them.
	Sink io.Writer
	// OnFinalized observes finalized timelines synchronously (the telemetry
	// plane's phase-histogram and SLO-attainment feed). The callback must
	// neither retain nor modify the timeline or anything it points to: the
	// recorder renders every finalized timeline into the same value, and
	// its GPU lists are shared.
	OnFinalized func(*Timeline)
}

// Recorder assembles per-request span timelines from a control loop's hook
// stream. Hook callbacks run on the loop goroutine; lookups are safe from
// any goroutine (everything is guarded by one mutex — the hook path takes
// it briefly per transition, never blocking on I/O except the optional
// sink write at finalization).
//
// A timeline is kept as a record: the Timeline header plus spans in a
// compact form without pointers, so that a retained timeline is one small
// object for the collector to scan and a span takes about half a Span's
// bytes. Lookup, the sink and OnFinalized see it rendered as a Timeline.
type Recorder struct {
	mu  sync.Mutex
	cfg Config
	enc *json.Encoder // writes to cfg.Sink; nil without one
	out Timeline      // render's output: Lookup clones it, sink and OnFinalized read it

	// byID holds every active record and every finalized one the ring
	// retains; a record is active until it is Done.
	byTrace map[string]*record
	byID    map[workload.RequestID]*record

	// waiting holds records that opened a plan-wait span no plan has
	// considered yet. onPlanComputed resolves each through
	// ctx.PendingState, so a round costs the requests that (re)joined the
	// queue since the last plan, not the queue.
	waiting []*record

	// final is a ring of finalized records; ringAt is the next overwrite
	// position once the ring is full.
	final  []*record
	ringAt int

	// spare holds records the ring evicted, for the next admissions to
	// reuse (span array included).
	spare []*record

	// classes, causes and gpus memoize the strings and GPU lists timelines
	// share: one class name per resolution, the cause strings span.cause
	// indexes, one GPU list per group mask.
	classes []classMemo
	causes  []string
	gpus    map[simgpu.Mask][]int

	finalized int
	sinkErr   error

	// tenants and phases are sorted by name.
	tenants []tenantAgg
	phases  []phaseAgg
}

// record is one request's timeline as the recorder keeps it.
type record struct {
	tl      Timeline // the header; tl.Spans stays nil
	spans   []span
	open    int  // index of the open span, -1 when none
	waiting bool // the waiting list may hold the record
}

// span is a Span in compact form: kind indexes kindNames, cause indexes
// Recorder.causes, and gpus is the group mask.
type span struct {
	start, end            int64
	gpus                  simgpu.Mask
	steps, elided, degree int
	kind                  kindCode
	cause                 uint16
	batched               bool
}

// kindCode is a SpanKind's index in kindNames.
type kindCode uint8

const (
	kindAdmission kindCode = iota
	kindPlanWait
	kindQueue
	kindCompute
	kindPreempted
	kindRequeued
	kindFinish
	kindDrop
)

var kindNames = [...]SpanKind{
	kindAdmission: SpanAdmission,
	kindPlanWait:  SpanPlanWait,
	kindQueue:     SpanQueue,
	kindCompute:   SpanCompute,
	kindPreempted: SpanPreempted,
	kindRequeued:  SpanRequeued,
	kindFinish:    SpanFinish,
	kindDrop:      SpanDrop,
}

// zeroWait reports a plan-wait or queue span of zero length, which no
// finalized timeline keeps.
func (s *span) zeroWait() bool {
	return (s.kind == kindPlanWait || s.kind == kindQueue) && s.start == s.end
}

type classMemo struct {
	res  model.Resolution
	name string
}

type tenantAgg struct {
	name      string
	met, done int
}

type phaseAgg struct {
	class                    string
	planWait, queue, compute float64
	count                    int
}

// typicalSpans sizes a fresh record's span array. Admission, plan-wait,
// compute and finish make five; every further round adds a compute segment
// and the plan-wait before it. Sixteen spans hold nine in ten timelines of a
// 2-GPU shard at its SLO-meeting load.
const typicalSpans = 16

// NewRecorder builds a recorder.
func NewRecorder(cfg Config) *Recorder {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 4096
	}
	r := &Recorder{
		cfg:     cfg,
		byTrace: map[string]*record{},
		byID:    map[workload.RequestID]*record{},
		final:   make([]*record, 0, min(cfg.Capacity, 256)),
		causes:  []string{""},
		gpus:    map[simgpu.Mask][]int{},
	}
	if cfg.Sink != nil {
		r.enc = json.NewEncoder(cfg.Sink)
	}
	return r
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
	if rec, ok := r.byTrace[key]; ok {
		return r.render(rec).Clone(), true
	}
	// Atoi accepts a leading '+', which no request ID is written with.
	if id, err := strconv.Atoi(key); err == nil && key[0] != '+' {
		if rec, ok := r.byID[workload.RequestID(id)]; ok {
			return r.render(rec).Clone(), true
		}
	}
	return nil, false
}

// LookupID returns a deep copy of a timeline by request ID.
func (r *Recorder) LookupID(id workload.RequestID) (*Timeline, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rec, ok := r.byID[id]; ok {
		return r.render(rec).Clone(), true
	}
	return nil, false
}

// render writes rec into r.out as a Timeline, reusing r.out's span array.
// Its GPU lists are the recorder's shared ones. Caller holds r.mu.
func (r *Recorder) render(rec *record) *Timeline {
	spans := r.out.Spans[:0]
	r.out = rec.tl
	for i := range rec.spans {
		s := &rec.spans[i]
		spans = append(spans, Span{
			Kind: kindNames[s.kind], StartUS: s.start, EndUS: s.end,
			Steps: s.steps, ElidedSteps: s.elided, Degree: s.degree,
			GPUs: r.gpuList(s.gpus), Batched: s.batched, Cause: r.causes[s.cause],
		})
	}
	r.out.Spans = spans
	r.out.Running = rec.open >= 0 && rec.spans[rec.open].kind == kindCompute
	return &r.out
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
	out := make([]TenantAttainment, len(r.tenants))
	for i, a := range r.tenants {
		out[i] = TenantAttainment{Tenant: a.name, Finished: a.done, Met: a.met,
			Rate: float64(a.met) / float64(a.done)}
	}
	return out
}

// Phases returns the per-class phase decomposition, sorted by class name.
func (r *Recorder) Phases() []ClassPhases {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ClassPhases, len(r.phases))
	for i, a := range r.phases {
		out[i] = ClassPhases{
			Class: a.class, Requests: a.count,
			PlanWaitS: a.planWait, QueueS: a.queue, ComputeS: a.compute,
		}
	}
	return out
}

// tenant returns the tenant's aggregate, inserted in name order if new.
func (r *Recorder) tenant(name string) *tenantAgg {
	i := sort.Search(len(r.tenants), func(i int) bool { return r.tenants[i].name >= name })
	if i == len(r.tenants) || r.tenants[i].name != name {
		r.tenants = slices.Insert(r.tenants, i, tenantAgg{name: name})
	}
	return &r.tenants[i]
}

// phase returns the class's aggregate, inserted in name order if new.
func (r *Recorder) phase(class string) *phaseAgg {
	i := sort.Search(len(r.phases), func(i int) bool { return r.phases[i].class >= class })
	if i == len(r.phases) || r.phases[i].class != class {
		r.phases = slices.Insert(r.phases, i, phaseAgg{class: class})
	}
	return &r.phases[i]
}

func us(d time.Duration) int64 { return d.Microseconds() }

// active returns the record of a request admitted and not yet finalized.
func (r *Recorder) active(id workload.RequestID) *record {
	if rec := r.byID[id]; rec != nil && !rec.tl.Done {
		return rec
	}
	return nil
}

// class returns the memoized class name of a resolution.
func (r *Recorder) class(res model.Resolution) string {
	for _, c := range r.classes {
		if c.res == res {
			return c.name
		}
	}
	name := res.String()
	r.classes = append(r.classes, classMemo{res: res, name: name})
	return name
}

// cause returns the index of a cause string in r.causes.
func (r *Recorder) cause(c string) uint16 {
	for i, known := range r.causes {
		if known == c {
			return uint16(i)
		}
	}
	r.causes = append(r.causes, c)
	return uint16(len(r.causes) - 1)
}

// gpuList returns the memoized ascending GPU list of a group mask, nil for
// none. Rendered spans share it; Clone copies it.
func (r *Recorder) gpuList(m simgpu.Mask) []int {
	if m == 0 {
		return nil
	}
	if ids, ok := r.gpus[m]; ok {
		return ids
	}
	ids := make([]int, 0, m.Count())
	for v := uint64(m); v != 0; v &= v - 1 {
		ids = append(ids, bits.TrailingZeros64(v))
	}
	r.gpus[m] = ids
	return ids
}

func (r *Recorder) onAdmitted(now time.Duration, req *workload.Request) {
	r.mu.Lock()
	defer r.mu.Unlock()
	trace := req.TraceID
	if trace == "" {
		trace = "req-" + strconv.Itoa(int(req.ID))
	}
	var rec *record
	if n := len(r.spare); n > 0 {
		rec = r.spare[n-1]
		r.spare[n-1] = nil
		r.spare = r.spare[:n-1]
		rec.spans = rec.spans[:0]
	} else {
		rec = &record{spans: make([]span, 0, typicalSpans)}
	}
	rec.tl = Timeline{
		TraceID:      trace,
		ID:           int(req.ID),
		Tenant:       req.Tenant,
		Class:        r.class(req.Res),
		Shard:        r.cfg.Shard,
		SLOUS:        us(req.SLO),
		ArrivalUS:    us(now),
		DeadlineUS:   us(req.Deadline()),
		SkippedSteps: req.SkippedSteps,
		Res:          req.Res,
	}
	rec.open = -1
	appendSpan(rec, kindAdmission, now)
	r.openPlanWait(rec, now)
	r.byTrace[trace] = rec
	r.byID[req.ID] = rec
}

// appendSpan appends a span of kind k that starts and ends at `at`.
func appendSpan(rec *record, k kindCode, at time.Duration) *span {
	rec.spans = append(rec.spans, span{kind: k, start: us(at), end: us(at)})
	return &rec.spans[len(rec.spans)-1]
}

func (r *Recorder) openSpan(rec *record, k kindCode, at time.Duration) *span {
	sp := appendSpan(rec, k, at)
	rec.open = len(rec.spans) - 1
	return sp
}

// openPlanWait opens a plan-wait span and queues the record for the next
// plan's queue transition.
func (r *Recorder) openPlanWait(rec *record, at time.Duration) {
	r.openSpan(rec, kindPlanWait, at)
	r.waiting = append(r.waiting, rec)
	rec.waiting = true
}

// closeSpan ends the open span at `at`. A wait that ends where it began is
// removed on the spot when it is the last span: finalize would prune it
// anyway, and a round that dispatches a request the instant a plan
// considers it leaves two of them.
func (r *Recorder) closeSpan(rec *record, at time.Duration) {
	if rec.open < 0 {
		return
	}
	rec.spans[rec.open].end = us(at)
	if rec.open == len(rec.spans)-1 && rec.spans[rec.open].zeroWait() {
		rec.spans = rec.spans[:rec.open]
	}
	rec.open = -1
}

// dropOpen removes the open span entirely (tentative plan-wait at finish).
func (r *Recorder) dropOpen(rec *record) {
	if rec.open < 0 {
		return
	}
	rec.spans = rec.spans[:rec.open]
	rec.open = -1
}

func (r *Recorder) onPlanComputed(now, _ time.Duration, ctx *sched.PlanContext) {
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := r.waiting[:0]
	for _, rec := range r.waiting {
		// A finalized record, or one whose wait already ended, leaves.
		if !rec.tl.Done && rec.open >= 0 && rec.spans[rec.open].kind == kindPlanWait {
			if _, ok := ctx.PendingState(workload.RequestID(rec.tl.ID)); !ok {
				kept = append(kept, rec)
				continue
			}
			// First plan that considered the request: plan-wait ends,
			// queueing (considered but not yet dispatched) begins.
			r.closeSpan(rec, now)
			r.openSpan(rec, kindQueue, now)
		}
		rec.waiting = false
	}
	clear(r.waiting[len(kept):])
	r.waiting = kept
}

func (r *Recorder) onRunStarted(now time.Duration, run *engine.Run) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range run.Asg.Requests {
		rec := r.active(id)
		if rec == nil {
			continue
		}
		r.closeSpan(rec, now)
		sp := r.openSpan(rec, kindCompute, now)
		sp.steps = run.Steps[id]
		sp.degree = run.Degree
		sp.batched = run.Batched
		sp.gpus = run.Asg.Group
	}
}

// endCompute closes a member's compute segment at `at`, tagging an abnormal
// cause ("fault"/"resize") when the block did not retire cleanly.
func (r *Recorder) endCompute(rec *record, at time.Duration, cause string) {
	if rec.open < 0 || rec.spans[rec.open].kind != kindCompute {
		return
	}
	rec.spans[rec.open].cause = r.cause(cause)
	r.closeSpan(rec, at)
}

func (r *Recorder) onRunFinished(_ time.Duration, run *engine.Run) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range run.Asg.Requests {
		rec := r.active(id)
		if rec == nil {
			continue
		}
		r.endCompute(rec, run.End, "")
		// A member with steps left goes straight back to pending with no
		// hook of its own; open a tentative plan-wait span — Finished/Dropped
		// (which fire synchronously for retiring members) discard it.
		if rec.open < 0 {
			r.openPlanWait(rec, run.End)
		}
	}
}

func (r *Recorder) onRunAborted(now time.Duration, run *engine.Run, _ map[workload.RequestID]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range run.Asg.Requests {
		if rec := r.active(id); rec != nil {
			r.endCompute(rec, now, string(control.RequeueFault))
		}
	}
}

func (r *Recorder) onRunPreempted(now time.Duration, run *engine.Run, _ map[workload.RequestID]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range run.Asg.Requests {
		if rec := r.active(id); rec != nil {
			r.endCompute(rec, now, string(control.RequeueResize))
			appendSpan(rec, kindPreempted, now)
		}
	}
}

func (r *Recorder) onStepsElided(_ time.Duration, id workload.RequestID, approx int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := r.active(id)
	if rec == nil {
		return
	}
	rec.tl.ElidedSteps += approx
	// Attach to the most recent compute segment (already closed by the run
	// retirement that fired just before this credit).
	for i := len(rec.spans) - 1; i >= 0; i-- {
		if rec.spans[i].kind == kindCompute {
			rec.spans[i].elided += approx
			return
		}
	}
}

func (r *Recorder) onRequeued(now time.Duration, id workload.RequestID, cause control.RequeueCause) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := r.active(id)
	if rec == nil {
		return
	}
	appendSpan(rec, kindRequeued, now).cause = r.cause(string(cause))
	rec.open = -1
	r.openPlanWait(rec, now)
}

func (r *Recorder) onFinished(_ time.Duration, o control.Outcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := r.active(o.ID)
	if rec == nil {
		return
	}
	r.dropOpen(rec)
	appendSpan(rec, kindFinish, o.Completion)
	rec.tl.CompletedUS = us(o.Completion)
	rec.tl.Met = o.Met
	rec.tl.AvgDegree = o.AvgDegree
	r.finalize(rec)
}

func (r *Recorder) onDropped(now time.Duration, o control.Outcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := r.active(o.ID)
	if rec == nil {
		return
	}
	r.closeSpan(rec, now)
	appendSpan(rec, kindDrop, now).cause = r.cause(string(o.Cause))
	rec.tl.Dropped = true
	rec.tl.Cause = string(o.Cause)
	r.finalize(rec)
}

// finalize prunes zero-length wait spans, updates the aggregates, streams
// the timeline to the sink, and moves the record into the bounded
// retention ring. Caller holds r.mu.
func (r *Recorder) finalize(rec *record) {
	kept := 0
	for i := range rec.spans {
		if !rec.spans[i].zeroWait() {
			rec.spans[kept] = rec.spans[i]
			kept++
		}
	}
	rec.spans = rec.spans[:kept]
	rec.tl.Done = true
	r.finalized++

	ta := r.tenant(rec.tl.Tenant)
	ta.done++
	if rec.tl.Met {
		ta.met++
	}
	// Each phase is summed on its own before it joins the class total, as
	// Timeline.Phase sums it.
	var planWait, queue, compute float64
	for i := range rec.spans {
		switch s := &rec.spans[i]; s.kind {
		case kindPlanWait:
			planWait += spanSeconds(s.start, s.end)
		case kindQueue:
			queue += spanSeconds(s.start, s.end)
		case kindCompute:
			compute += spanSeconds(s.start, s.end)
		}
	}
	pa := r.phase(rec.tl.Class)
	pa.count++
	pa.planWait += planWait
	pa.queue += queue
	pa.compute += compute

	if r.cfg.OnFinalized != nil || r.enc != nil {
		tl := r.render(rec)
		if r.cfg.OnFinalized != nil {
			r.cfg.OnFinalized(tl)
		}
		if r.enc != nil && r.sinkErr == nil {
			r.sinkErr = r.enc.Encode(tl)
		}
	}

	if len(r.final) < r.cfg.Capacity {
		r.final = append(r.final, rec)
		return
	}
	old := r.final[r.ringAt]
	r.final[r.ringAt] = rec
	r.ringAt = (r.ringAt + 1) % r.cfg.Capacity
	// Evict the overwritten record from the lookup maps — unless a newer
	// record already claimed the same key.
	if r.byTrace[old.tl.TraceID] == old {
		delete(r.byTrace, old.tl.TraceID)
	}
	if r.byID[workload.RequestID(old.tl.ID)] == old {
		delete(r.byID, workload.RequestID(old.tl.ID))
	}
	// Nothing refers to the evicted record now but, until the next plan,
	// the waiting list: one still there is left to the collector, since
	// reusing it would put the new request on the list twice.
	if !old.waiting {
		r.spare = append(r.spare, old)
	}
}
