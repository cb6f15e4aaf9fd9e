package lifecycle

import (
	"encoding/json"
	"io"
	"math/bits"
	"slices"
	"strconv"
	"strings"
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
// An active timeline keeps its first spans inline and moves to a growable
// buffer if it runs longer; finalizing hands both on to later admissions.
// A finalized timeline is a header without pointers over an exact-length
// range of one span queue, both stored in fixed-size chunks the collector
// never scans. Lookup, the sink and OnFinalized see a timeline rendered as
// a Timeline.
type Recorder struct {
	mu  sync.Mutex
	cfg Config
	enc *json.Encoder // writes to cfg.Sink; nil without one
	out Timeline      // render's output: Lookup clones it, sink and OnFinalized read it

	// byTrace and byID locate every active timeline and every finalized
	// one the store retains. byTrace holds explicit trace IDs only: a
	// request admitted without one answers to the derived "req-<id>".
	byTrace map[string]loc
	byID    map[workload.RequestID]loc

	// acts holds the active timelines by slot. A finalized timeline's slot
	// goes to free with its object, for the next admission, or to bare
	// without it; its buffer, if it outgrew the inline spans, goes to bufs.
	// Each list keeps at most spareLimit of what is active, so that spare
	// memory follows what is in flight now, not at its peak.
	acts       []*activeTimeline
	free, bare []int32
	bufs       [][]span
	inBufs     int    // active timelines in a buffer
	admissions uint32 // numbers each admission for the waiting list

	// waiting holds timelines that opened a plan-wait span no plan has
	// considered yet. onPlanComputed resolves each through
	// ctx.PendingState, so a round costs the requests that (re)joined the
	// queue since the last plan, not the queue. An entry whose slot has
	// since been finalized (and perhaps reused) no longer matches its
	// generation and is dropped.
	waiting []waitRef

	// The finalized store: the newest Capacity timelines, oldest out
	// first; hdrs.head counts every timeline finalized. Timeline seq
	// (0-based finalization order) has its header at position seq of hdrs,
	// its explicit trace ID at position seq of traces and its
	// header.spanLen spans from position header.spanAt of spans.
	// Timelines are finalized and evicted in the same order, so evicting
	// the oldest releases the oldest span range. All three grow by need.
	hdrs   fifo[header]
	traces fifo[string]
	spans  fifo[span]

	// classes, tenants and causes are the memo tables headers index: one
	// entry per resolution, tenant and cause string, in first-seen order,
	// each class and tenant with its aggregate. gpus memoizes one GPU list
	// per group mask.
	classes   []classMemo
	tenants   []tenantAgg
	tenantIdx map[string]uint32
	causes    []string
	gpus      map[simgpu.Mask][]int

	sinkErr error
}

// loc says where a timeline is: a finalized timeline's seq when ≥ 0, the
// active slot s as -1-s.
type loc int64

func activeLoc(slot int32) loc { return -1 - loc(slot) }

// header is a timeline's fields apart from its trace ID and spans, with
// tenant, class and cause as memo-table indices. It holds no pointers.
type header struct {
	id                                        workload.RequestID
	sloUS, arrivalUS, deadlineUS, completedUS int64
	avgDegree                                 float64
	spanAt                                    uint64 // position of the first span in Recorder.spans (finalized only)
	spanLen                                   uint32
	elided, skipped                           int32
	tenant                                    uint32
	class, cause                              uint16
	dropped, met                              bool
}

// activeTimeline is a request's timeline from admission to finalization.
// Its spans start in the inline array, which holds a timeline up to its
// first compute segment and the span after it; one that runs longer moves
// to a buffer from Recorder.bufs. A deep queue's waiting requests thus
// hold no buffer: those stay with the requests that have run.
type activeTimeline struct {
	hdr    header
	trace  string // explicit trace ID, "" for the derived one
	spans  []span // inline[:n], or a buffer once it outgrew inline
	open   int32  // index of the open span, -1 when none
	slot   int32
	gen    uint32 // the admission's number
	inline [inlineSpans]span
}

// inlineSpans is the length of activeTimeline.inline: admission,
// plan-wait, queue, compute and the finish, drop or plan-wait after it.
const inlineSpans = 5

// spilled reports whether the timeline's spans are in a buffer.
func (a *activeTimeline) spilled() bool { return cap(a.spans) > inlineSpans }

// waitRef names an admission's timeline on the waiting list: the slot is
// still that admission's while the slot's gen matches.
type waitRef struct {
	slot int32
	gen  uint32
}

// span is a Span in compact form: kind indexes kindNames, cause indexes
// Recorder.causes, and gpus is the group mask. 40 bytes, no pointers.
type span struct {
	start, end            int64
	gpus                  simgpu.Mask
	steps, elided, degree int32
	kind                  kindCode
	batched               bool
	cause                 uint16
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

// classMemo is one resolution class and its phase aggregate.
type classMemo struct {
	res                      model.Resolution
	name                     string
	planWait, queue, compute float64
	count                    int
}

type tenantAgg struct {
	name      string
	met, done int
}

// NewRecorder builds a recorder. It allocates nothing for the store: the
// tables grow with the timelines they hold.
func NewRecorder(cfg Config) *Recorder {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 4096
	}
	r := &Recorder{cfg: cfg, causes: []string{""}}
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
	if l, ok := r.byTrace[key]; ok {
		return r.render(l).Clone(), true
	}
	// A request admitted without a trace ID answers to req-<id>, spelt as
	// strconv.Itoa spells the ID.
	if rest, ok := strings.CutPrefix(key, "req-"); ok {
		var buf [24]byte
		if id, err := strconv.Atoi(rest); err == nil && string(strconv.AppendInt(buf[:0], int64(id), 10)) == rest {
			if l, ok := r.byID[workload.RequestID(id)]; ok && r.trace(l) == "" {
				return r.render(l).Clone(), true
			}
		}
	}
	// Atoi accepts a leading '+', which no request ID is written with.
	if id, err := strconv.Atoi(key); err == nil && key[0] != '+' {
		if l, ok := r.byID[workload.RequestID(id)]; ok {
			return r.render(l).Clone(), true
		}
	}
	return nil, false
}

// LookupID returns a deep copy of a timeline by request ID.
func (r *Recorder) LookupID(id workload.RequestID) (*Timeline, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if l, ok := r.byID[id]; ok {
		return r.render(l).Clone(), true
	}
	return nil, false
}

// trace returns the explicit trace ID of the timeline at l, "" for none.
func (r *Recorder) trace(l loc) string {
	if l < 0 {
		return r.acts[-1-l].trace
	}
	return *r.traces.at(uint64(l))
}

// render writes the timeline at l into r.out, reusing r.out's span array.
// Its GPU lists are the recorder's shared ones. Caller holds r.mu.
func (r *Recorder) render(l loc) *Timeline {
	spans := r.out.Spans[:0]
	var h *header
	running := false
	if l < 0 {
		a := r.acts[-1-l]
		h = &a.hdr
		for i := range a.spans {
			spans = append(spans, r.renderSpan(&a.spans[i]))
		}
		running = a.open >= 0 && a.spans[a.open].kind == kindCompute
	} else {
		h = r.hdrs.at(uint64(l))
		for p := h.spanAt; p < h.spanAt+uint64(h.spanLen); p++ {
			spans = append(spans, r.renderSpan(r.spans.at(p)))
		}
	}
	trace := r.trace(l)
	if trace == "" {
		trace = "req-" + strconv.Itoa(int(h.id))
	}
	c := &r.classes[h.class]
	r.out = Timeline{
		TraceID:      trace,
		ID:           int(h.id),
		Tenant:       r.tenants[h.tenant].name,
		Class:        c.name,
		Shard:        r.cfg.Shard,
		SLOUS:        h.sloUS,
		ArrivalUS:    h.arrivalUS,
		DeadlineUS:   h.deadlineUS,
		CompletedUS:  h.completedUS,
		Done:         l >= 0,
		Dropped:      h.dropped,
		Cause:        r.causes[h.cause],
		Met:          h.met,
		ElidedSteps:  int(h.elided),
		SkippedSteps: int(h.skipped),
		AvgDegree:    h.avgDegree,
		Res:          c.res,
		Running:      running,
		Spans:        spans,
	}
	return &r.out
}

func (r *Recorder) renderSpan(s *span) Span {
	return Span{
		Kind: kindNames[s.kind], StartUS: s.start, EndUS: s.end,
		Steps: int(s.steps), ElidedSteps: int(s.elided), Degree: int(s.degree),
		GPUs: r.gpuList(s.gpus), Batched: s.batched, Cause: r.causes[s.cause],
	}
}

// Finalized reports how many timelines have been finalized (including any
// the retention ring has since evicted).
func (r *Recorder) Finalized() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(r.hdrs.head)
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
	var out []TenantAttainment
	for _, a := range r.tenants {
		if a.done > 0 {
			out = append(out, TenantAttainment{Tenant: a.name, Finished: a.done, Met: a.met,
				Rate: float64(a.met) / float64(a.done)})
		}
	}
	slices.SortFunc(out, func(a, b TenantAttainment) int { return strings.Compare(a.Tenant, b.Tenant) })
	return out
}

// Phases returns the per-class phase decomposition, sorted by class name.
func (r *Recorder) Phases() []ClassPhases {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []ClassPhases
	for _, c := range r.classes {
		if c.count > 0 {
			out = append(out, ClassPhases{
				Class: c.name, Requests: c.count,
				PlanWaitS: c.planWait, QueueS: c.queue, ComputeS: c.compute,
			})
		}
	}
	slices.SortFunc(out, func(a, b ClassPhases) int { return strings.Compare(a.Class, b.Class) })
	return out
}

func us(d time.Duration) int64 { return d.Microseconds() }

// active returns the timeline of a request admitted and not yet finalized.
func (r *Recorder) active(id workload.RequestID) *activeTimeline {
	if l, ok := r.byID[id]; ok && l < 0 {
		return r.acts[-1-l]
	}
	return nil
}

// class returns the memo index of a resolution's class.
func (r *Recorder) class(res model.Resolution) uint16 {
	for i := range r.classes {
		if r.classes[i].res == res {
			return uint16(i)
		}
	}
	r.classes = append(r.classes, classMemo{res: res, name: res.String()})
	return uint16(len(r.classes) - 1)
}

// tenant returns the memo index of a tenant.
func (r *Recorder) tenant(name string) uint32 {
	if i, ok := r.tenantIdx[name]; ok {
		return i
	}
	if r.tenantIdx == nil {
		r.tenantIdx = map[string]uint32{}
	}
	i := uint32(len(r.tenants))
	r.tenants = append(r.tenants, tenantAgg{name: name})
	r.tenantIdx[name] = i
	return i
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
	if r.gpus == nil {
		r.gpus = map[simgpu.Mask][]int{}
	}
	r.gpus[m] = ids
	return ids
}

func (r *Recorder) onAdmitted(now time.Duration, req *workload.Request) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var slot int32
	switch {
	case len(r.free) > 0:
		slot = pop(&r.free)
	case len(r.bare) > 0:
		slot = pop(&r.bare)
		r.acts[slot] = &activeTimeline{slot: slot}
	default:
		slot = int32(len(r.acts))
		r.acts = append(r.acts, &activeTimeline{slot: slot})
	}
	a := r.acts[slot]
	a.gen = r.admissions
	r.admissions++
	a.hdr = header{
		id:         req.ID,
		sloUS:      us(req.SLO),
		arrivalUS:  us(now),
		deadlineUS: us(req.Deadline()),
		skipped:    int32(req.SkippedSteps),
		tenant:     r.tenant(req.Tenant),
		class:      r.class(req.Res),
	}
	a.trace = req.TraceID
	a.spans = a.inline[:0]
	a.open = -1
	r.appendSpan(a, kindAdmission, now)
	r.openPlanWait(a, now)
	if r.byID == nil {
		r.byID = map[workload.RequestID]loc{}
	}
	r.byID[req.ID] = activeLoc(slot)
	if a.trace != "" {
		if r.byTrace == nil {
			r.byTrace = map[string]loc{}
		}
		r.byTrace[a.trace] = activeLoc(slot)
	}
}

// appendSpan appends a span of kind k that starts and ends at `at`,
// moving a timeline that outgrows its inline spans to a buffer.
func (r *Recorder) appendSpan(a *activeTimeline, k kindCode, at time.Duration) *span {
	if len(a.spans) == cap(a.spans) && !a.spilled() {
		var buf []span
		if len(r.bufs) > 0 {
			buf = pop(&r.bufs)
		} else {
			buf = make([]span, 0, 4*inlineSpans)
		}
		a.spans = append(buf, a.spans...)
		r.inBufs++
	}
	a.spans = append(a.spans, span{kind: k, start: us(at), end: us(at)})
	return &a.spans[len(a.spans)-1]
}

func (r *Recorder) openSpan(a *activeTimeline, k kindCode, at time.Duration) *span {
	sp := r.appendSpan(a, k, at)
	a.open = int32(len(a.spans) - 1)
	return sp
}

// openPlanWait opens a plan-wait span and queues the timeline for the next
// plan's queue transition.
func (r *Recorder) openPlanWait(a *activeTimeline, at time.Duration) {
	r.openSpan(a, kindPlanWait, at)
	r.waiting = append(r.waiting, waitRef{slot: a.slot, gen: a.gen})
}

// closeSpan ends the open span at `at`. A wait that ends where it began is
// removed on the spot when it is the last span: finalize would prune it
// anyway, and a round that dispatches a request the instant a plan
// considers it leaves two of them.
func closeSpan(a *activeTimeline, at time.Duration) {
	if a.open < 0 {
		return
	}
	a.spans[a.open].end = us(at)
	if int(a.open) == len(a.spans)-1 && a.spans[a.open].zeroWait() {
		a.spans = a.spans[:a.open]
	}
	a.open = -1
}

// dropOpen removes the open span entirely (tentative plan-wait at finish).
func dropOpen(a *activeTimeline) {
	if a.open < 0 {
		return
	}
	a.spans = a.spans[:a.open]
	a.open = -1
}

func (r *Recorder) onPlanComputed(now, _ time.Duration, ctx *sched.PlanContext) {
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := r.waiting[:0]
	for _, w := range r.waiting {
		a := r.acts[w.slot]
		// A finalized timeline, or one whose wait already ended, leaves.
		if a == nil || a.gen != w.gen || a.open < 0 || a.spans[a.open].kind != kindPlanWait {
			continue
		}
		if _, ok := ctx.PendingState(a.hdr.id); !ok {
			kept = append(kept, w)
			continue
		}
		// First plan that considered the request: plan-wait ends,
		// queueing (considered but not yet dispatched) begins.
		closeSpan(a, now)
		r.openSpan(a, kindQueue, now)
	}
	r.waiting = kept
}

func (r *Recorder) onRunStarted(now time.Duration, run *engine.Run) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range run.Asg.Requests {
		a := r.active(id)
		if a == nil {
			continue
		}
		closeSpan(a, now)
		sp := r.openSpan(a, kindCompute, now)
		sp.steps = int32(run.Steps[id])
		sp.degree = int32(run.Degree)
		sp.batched = run.Batched
		sp.gpus = run.Asg.Group
	}
}

// endCompute closes a member's compute segment at `at`, tagging an abnormal
// cause ("fault"/"resize") when the block did not retire cleanly.
func (r *Recorder) endCompute(a *activeTimeline, at time.Duration, cause string) {
	if a.open < 0 || a.spans[a.open].kind != kindCompute {
		return
	}
	a.spans[a.open].cause = r.cause(cause)
	closeSpan(a, at)
}

func (r *Recorder) onRunFinished(_ time.Duration, run *engine.Run) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range run.Asg.Requests {
		a := r.active(id)
		if a == nil {
			continue
		}
		r.endCompute(a, run.End, "")
		// A member with steps left goes straight back to pending with no
		// hook of its own; open a tentative plan-wait span — Finished/Dropped
		// (which fire synchronously for retiring members) discard it.
		if a.open < 0 {
			r.openPlanWait(a, run.End)
		}
	}
}

func (r *Recorder) onRunAborted(now time.Duration, run *engine.Run, _ map[workload.RequestID]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range run.Asg.Requests {
		if a := r.active(id); a != nil {
			r.endCompute(a, now, string(control.RequeueFault))
		}
	}
}

func (r *Recorder) onRunPreempted(now time.Duration, run *engine.Run, _ map[workload.RequestID]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range run.Asg.Requests {
		if a := r.active(id); a != nil {
			r.endCompute(a, now, string(control.RequeueResize))
			r.appendSpan(a, kindPreempted, now)
		}
	}
}

func (r *Recorder) onStepsElided(_ time.Duration, id workload.RequestID, approx int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.active(id)
	if a == nil {
		return
	}
	a.hdr.elided += int32(approx)
	// Attach to the most recent compute segment (already closed by the run
	// retirement that fired just before this credit).
	for i := len(a.spans) - 1; i >= 0; i-- {
		if a.spans[i].kind == kindCompute {
			a.spans[i].elided += int32(approx)
			return
		}
	}
}

func (r *Recorder) onRequeued(now time.Duration, id workload.RequestID, cause control.RequeueCause) {
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.active(id)
	if a == nil {
		return
	}
	r.appendSpan(a, kindRequeued, now).cause = r.cause(string(cause))
	a.open = -1
	r.openPlanWait(a, now)
}

func (r *Recorder) onFinished(_ time.Duration, o control.Outcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.active(o.ID)
	if a == nil {
		return
	}
	dropOpen(a)
	r.appendSpan(a, kindFinish, o.Completion)
	a.hdr.completedUS = us(o.Completion)
	a.hdr.met = o.Met
	a.hdr.avgDegree = o.AvgDegree
	r.finalize(a)
}

func (r *Recorder) onDropped(now time.Duration, o control.Outcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.active(o.ID)
	if a == nil {
		return
	}
	closeSpan(a, now)
	c := r.cause(string(o.Cause))
	r.appendSpan(a, kindDrop, now).cause = c
	a.hdr.dropped = true
	a.hdr.cause = c
	r.finalize(a)
}

// finalize prunes zero-length wait spans, updates the aggregates, moves the
// timeline into the finalized store (evicting the oldest past Capacity),
// streams it to the sink, and frees its slot. Caller holds r.mu.
func (r *Recorder) finalize(a *activeTimeline) {
	kept := a.spans[:0]
	for _, s := range a.spans {
		if !s.zeroWait() {
			kept = append(kept, s)
		}
	}
	a.spans = kept

	ta := &r.tenants[a.hdr.tenant]
	ta.done++
	if a.hdr.met {
		ta.met++
	}
	// Each phase is summed on its own before it joins the class total, as
	// Timeline.Phase sums it.
	var planWait, queue, compute float64
	for i := range a.spans {
		switch s := &a.spans[i]; s.kind {
		case kindPlanWait:
			planWait += spanSeconds(s.start, s.end)
		case kindQueue:
			queue += spanSeconds(s.start, s.end)
		case kindCompute:
			compute += spanSeconds(s.start, s.end)
		}
	}
	c := &r.classes[a.hdr.class]
	c.count++
	c.planWait += planWait
	c.queue += queue
	c.compute += compute

	if r.hdrs.len() == r.cfg.Capacity {
		r.evict()
	}
	h := a.hdr
	h.spanAt, h.spanLen = r.spans.push(a.spans...), uint32(len(a.spans))
	l, was := loc(r.hdrs.push(h)), activeLoc(a.slot)
	r.traces.push(a.trace)
	if r.byID[h.id] == was {
		r.byID[h.id] = l
	}
	if a.trace != "" && r.byTrace[a.trace] == was {
		r.byTrace[a.trace] = l
	}

	if r.cfg.OnFinalized != nil || r.enc != nil {
		tl := r.render(l)
		if r.cfg.OnFinalized != nil {
			r.cfg.OnFinalized(tl)
		}
		if r.enc != nil && r.sinkErr == nil {
			r.sinkErr = r.enc.Encode(tl)
		}
	}

	if a.spilled() {
		r.inBufs--
		r.bufs = append(r.bufs, a.spans[:0])
		for len(r.bufs) > spareLimit(r.inBufs) {
			pop(&r.bufs)
		}
	}
	a.spans = nil
	a.trace = ""
	r.free = append(r.free, a.slot)
	for active := len(r.acts) - len(r.free) - len(r.bare); len(r.free) > spareLimit(active); {
		slot := pop(&r.free)
		r.acts[slot] = nil
		r.bare = append(r.bare, slot)
	}
}

// spareLimit bounds the spare timeline objects or buffers kept for n active
// timelines (or n in buffers): enough that a queue's swings reuse them,
// few enough that an idle recorder holds next to none.
func spareLimit(n int) int { return 2*n + 16 }

// pop removes and returns the last element of *s, clearing its place.
func pop[T any](s *[]T) T {
	n := len(*s) - 1
	v := (*s)[n]
	var zero T
	(*s)[n] = zero
	*s = (*s)[:n]
	return v
}

// evict drops the oldest finalized timeline from the lookup maps (unless
// a newer timeline claimed the same key) and releases its header, trace ID
// and span range, each the oldest in its queue.
func (r *Recorder) evict() {
	seq := r.hdrs.tail
	h, trace, l := r.hdrs.at(seq), r.traces.at(seq), loc(seq)
	if r.byID[h.id] == l {
		delete(r.byID, h.id)
	}
	if *trace != "" && r.byTrace[*trace] == l {
		delete(r.byTrace, *trace)
	}
	*trace = ""
	r.spans.drop(h.spanAt + uint64(h.spanLen))
	r.hdrs.drop(seq + 1)
	r.traces.drop(seq + 1)
}
