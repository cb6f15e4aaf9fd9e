// Package control is the clock-agnostic, round-based serving control plane —
// the single implementation of the scheduling loop the paper describes
// (deadline-aware allocation → knapsack packing → placement-preserving
// dispatch). It owns all request state (pending/running trackers), the τ
// round grid, plan → dispatch, fault requeue, drop/timeout expiry, and
// finish/drop bookkeeping.
//
// The loop is parameterized over clock.Clock and driven through an explicit
// event queue, so the exact same code runs in two worlds:
//
//   - internal/sim advances a clock.Virtual to each event and drains the
//     queue to completion (discrete-event simulation);
//   - internal/server sleeps on a clock.Real between events and feeds
//     arrivals and fault commands in from channels (live serving).
//
// Round-based loops tick on a τ grid anchored at the clock reading at New.
// A tick that leaves nothing pending, nothing in flight and no staged resize
// parks the loop: no next tick is queued until an arrival or a resize re-arms
// the grid at its first boundary at or after that instant. Both adapters —
// and every observer — therefore see the same event sequence.
//
// Observers follow per-request lifecycle transitions through Hooks (the
// lifecycle recorder, the telemetry plane, the invariant oracle); everything
// else — outcomes and their counts, the run log, plan counts, health
// counters — accumulates in the shared Result, which is why the simulator's
// trace export and the driver's /v1/stats agree by construction. The run log
// is pointer-free (RunRecord plus one flat member-ID list), so however long a
// loop serves, the collector never scans its history. The loop keeps no
// per-plan timings: observers that want them take PlanComputed.
package control

import (
	"fmt"
	"slices"
	"time"

	"tetriserve/internal/clock"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/engine"
	"tetriserve/internal/eventq"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

// StepTrimmer is the hook cache-based acceleration (Nirvana, §6.2) plugs
// into: it may shrink a request's step count on arrival and observes
// completions to update its state. The simulator passes it through from its
// config; the driver wraps the approximate latent cache in one.
type StepTrimmer interface {
	// OnArrival returns how many initial steps to skip for the prompt.
	OnArrival(p workload.Prompt, res model.Resolution, steps int, now time.Duration) int
	// OnComplete records a served request for future reuse.
	OnComplete(p workload.Prompt, res model.Resolution, now time.Duration)
}

// RequeueCause explains why a running request went back to the pending
// queue: a GPU fault aborted its block, or an elastic capacity change
// preempted it with a planned handoff. Ordinary end-of-block requeues fire
// no hook of their own; RunFinished marks them.
type RequeueCause string

// Requeue causes.
const (
	RequeueFault  RequeueCause = "fault"
	RequeueResize RequeueCause = "resize"
)

// Hooks are optional per-transition callbacks for observers such as the
// lifecycle recorder, the telemetry plane and the internal/invariant oracle.
// Every field may be nil. Hooks run on the loop's goroutine, synchronously
// with the transition they describe. Use Then to fan a transition out to
// several observers.
type Hooks struct {
	// Arriving fires before admission bookkeeping (before the trimmer and
	// the tracker insert) — the driver's on-demand profile extension point.
	Arriving func(now time.Duration, r *workload.Request)
	// Admitted fires once the request is tracked and pending.
	Admitted func(now time.Duration, r *workload.Request)
	// Started fires when a request joins a dispatched block, after
	// RunStarted. No observer in this module uses it; RunStarted carries the
	// same members.
	Started func(now time.Duration, id workload.RequestID)
	// Requeued fires when a fault or a capacity resize interrupts a
	// request's block and the survivor returns to the pending queue (not on
	// ordinary end-of-block requeues, which RunFinished already marks).
	// cause says which interruption it was.
	Requeued func(now time.Duration, id workload.RequestID, cause RequeueCause)
	// StepsElided fires when a retired block (completed, aborted or
	// preempted) credited approximated steps against a request's quality
	// budget — the per-request record of where step caching spent quality.
	// approx is the number of steps the block's cache interval approximated
	// for this request. Only fires when approx > 0.
	StepsElided func(now time.Duration, id workload.RequestID, approx int)
	// Finished fires for completed requests, Dropped for expired ones
	// (timeout policy or no-requeue fault ablation).
	Finished func(now time.Duration, o Outcome)
	Dropped  func(now time.Duration, o Outcome)
	// PlanRejected / StartFailed fire when the loop degrades loudly.
	PlanRejected func(now time.Duration, err error)
	StartFailed  func(now time.Duration, err error)

	// PlanComputed fires after every scheduler invocation — before
	// validation, so rejected plans report solve latency too. Exactly one of
	// Planned or PlanRejected follows, synchronously; ctx aliases
	// scheduler-owned scratch storage and must only be read during the
	// callback. latency is the wall-clock solve time.
	PlanComputed func(now, latency time.Duration, ctx *sched.PlanContext)
	// RoundTick fires at every effective τ boundary (after overrun
	// deferral), with the grid-anchored tick time and the clock reading. A
	// parked loop fires none, so consecutive ticks may be many τ apart.
	RoundTick func(at, now time.Duration)

	// Planned fires after a plan passes validation and before dispatch.
	// ctx and plan alias scheduler-owned scratch storage: observers must
	// read synchronously and never retain either value past the callback.
	Planned func(now time.Duration, ctx *sched.PlanContext, plan []sched.Assignment)
	// RunStarted fires when the engine accepts a block; RunFinished fires
	// when the block retires at its end time. The *engine.Run is the loop's
	// live record — observers must not mutate it.
	RunStarted  func(now time.Duration, run *engine.Run)
	RunFinished func(now time.Duration, run *engine.Run)
	// RunAborted fires when a GPU fault kills an in-flight block, before the
	// surviving members are requeued or dropped. stepsDone credits the steps
	// each member completed before the fault.
	RunAborted func(now time.Duration, run *engine.Run, stepsDone map[workload.RequestID]int)
	// RunPreempted fires when a capacity resize preempts an in-flight block
	// (planned handoff: steps credited, latent retained on surviving
	// members), before the members are requeued.
	RunPreempted func(now time.Duration, run *engine.Run, stepsDone map[workload.RequestID]int)
	// Resized fires on every effective capacity change, with the GPU sets
	// the shard gave up and gained. A no-op resize (same mask) does not fire.
	Resized func(now time.Duration, removed, added simgpu.Mask)
	// GPUFailed and GPURecovered observe effective fault-plane transitions:
	// the mask holds only GPUs that actually changed state (re-failing a
	// dead GPU or recovering a healthy one does not fire).
	GPUFailed    func(now time.Duration, mask simgpu.Mask)
	GPURecovered func(now time.Duration, mask simgpu.Mask)
}

// Then returns hooks that invoke h's callback first and next's second for
// every transition, so several observers (the telemetry plane, the lifecycle
// recorder, the invariant oracle) can watch one loop without knowing about
// each other.
func (h Hooks) Then(next Hooks) Hooks {
	return Hooks{
		Arriving:     chain2(h.Arriving, next.Arriving),
		Admitted:     chain2(h.Admitted, next.Admitted),
		Started:      chain2(h.Started, next.Started),
		Requeued:     chain3(h.Requeued, next.Requeued),
		StepsElided:  chain3(h.StepsElided, next.StepsElided),
		Finished:     chain2(h.Finished, next.Finished),
		Dropped:      chain2(h.Dropped, next.Dropped),
		PlanRejected: chain2(h.PlanRejected, next.PlanRejected),
		StartFailed:  chain2(h.StartFailed, next.StartFailed),
		PlanComputed: chain3(h.PlanComputed, next.PlanComputed),
		RoundTick:    chain2(h.RoundTick, next.RoundTick),
		Planned:      chain3(h.Planned, next.Planned),
		RunStarted:   chain2(h.RunStarted, next.RunStarted),
		RunFinished:  chain2(h.RunFinished, next.RunFinished),
		RunAborted:   chain3(h.RunAborted, next.RunAborted),
		RunPreempted: chain3(h.RunPreempted, next.RunPreempted),
		Resized:      chain3(h.Resized, next.Resized),
		GPUFailed:    chain2(h.GPUFailed, next.GPUFailed),
		GPURecovered: chain2(h.GPURecovered, next.GPURecovered),
	}
}

func chain2[A, B any](a, b func(A, B)) func(A, B) {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return func(x A, y B) { a(x, y); b(x, y) }
}

func chain3[A, B, C any](a, b func(A, B, C)) func(A, B, C) {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return func(x A, y B, z C) { a(x, y, z); b(x, y, z) }
}

// Config describes one control loop.
type Config struct {
	Model     *model.Model
	Topo      *simgpu.Topology
	Scheduler sched.Scheduler
	// Profile is the offline-profiled cost table (required; adapters build
	// a default over the standard resolutions when their caller omits one).
	Profile *costmodel.Profile
	// Engine tunes execution physics.
	Engine engine.Config
	// Trimmer optionally shortens requests via caching.
	Trimmer StepTrimmer
	// DropLateFactor > 0 expires a request once now exceeds
	// arrival + SLO×factor without completion — both the queued-job expiry
	// checked at every planning boundary and the timeout semantics for
	// results delivered too late (the paper's Figure 9 "dropped/timeout"
	// population). 0 disables dropping.
	DropLateFactor float64
	// NoRequeueOnFault drops a fault's surviving victims instead of
	// requeueing them — the recovery ablation the failure sweep compares
	// against.
	NoRequeueOnFault bool
	// Strict panics on invalid plans and engine start rejections instead of
	// only counting them — the simulator's oracle behavior for experiments,
	// where a scheduler bug must abort the run, not skew the numbers. The
	// driver leaves it off: a serving loop counts the failure in Result and
	// retries at the next event.
	Strict bool
	// Hooks receive lifecycle callbacks.
	Hooks Hooks
}

// Event kinds on the loop's queue. Arrivals and faults appear only when the
// adapter pre-schedules them (the simulator); the driver injects those
// directly via Arrive/Fail/Recover.
const (
	evArrival = iota
	evRunDone
	evRoundTick
	evGPUFail
	evGPURecover
	evResize
)

// Loop is the shared round-based control plane. It is not safe for
// concurrent use: exactly one goroutine (the simulator's event loop or the
// driver's serving goroutine) owns it.
type Loop struct {
	cfg Config
	clk clock.Clock
	q   eventq.Queue
	eng *engine.Engine

	// states is the request tracker: every admitted, unfinished request,
	// pending or running. Finalization deletes the entry, so nothing in it is
	// ever done.
	states map[workload.RequestID]*sched.RequestState
	// queue and late together hold exactly the tracked requests that are
	// not running; each request is in one of them. late holds the requests
	// whose late mark holds (sched.RequestState.LateHolds), with their mark
	// deadlines in lateDue; queue holds the rest. Both are sorted by
	// (arrival, ID), so merging them gives the order expiry drops in and the
	// probe sums the backlog in. Binary insertion and removal keep them
	// sorted, and a round hands them to the planner as they are
	// (PlanContext.Pending aliases queue, Late late and LateDue lateDue).
	// lateVersion is the profile version every mark in late holds at.
	queue       []*sched.RequestState
	late        []*sched.RequestState
	lateDue     []time.Duration
	lateVersion uint64
	inflight    map[engine.RunID]*engine.Run
	// runEv maps in-flight runs to their completion events so GPU faults
	// can cancel the completions of blocks they abort.
	runEv map[engine.RunID]eventq.Handle
	res   *Result
	// left counts admitted-or-scheduled requests not yet finalized.
	left int
	// roundBased caches the scheduler mode.
	roundBased bool
	// eager additionally plans on arrivals for round-based schedulers.
	eager     bool
	tau       time.Duration
	schedOver time.Duration
	// grid is the earliest instant the next round tick may fire: the clock
	// reading at New until the first tick, then the last fired tick + τ (so
	// an overrun deferral's phase carries over). armed reports a tick on the
	// queue; a parked loop has none.
	grid  time.Duration
	armed bool
	// resizeStaged/resizeMask hold a pending capacity change for round-based
	// schedulers: ApplyResize stages it (last writer wins) and the next
	// effective round tick applies it before planning, so every plan within
	// a round sees one consistent capacity.
	resizeStaged bool
	resizeMask   simgpu.Mask

	// Reused per-plan scratch (the control-plane analogue of the planner's
	// planScratch): the running snapshot, the PlanContext handed to the
	// scheduler, and the plan validator all live across rounds so a planning
	// boundary allocates nothing in steady state.
	ctx     sched.PlanContext
	runSnap []*sched.RequestState
	// running tracks states with Running set, maintained at the three flip
	// sites so snapshotRunning never walks the full (mostly finished)
	// request tracker.
	running []*sched.RequestState
	checker sched.PlanChecker
	// resTable is the digest's per-resolution table for resHealthy GPUs at
	// profile version resVersion (see resolutionDigests).
	resTable   []ResolutionDigest
	resHealthy int
	resVersion uint64
}

// New validates the configuration and builds a ready-to-run loop.
func New(cfg Config, clk clock.Clock) (*Loop, error) {
	if cfg.Model == nil || cfg.Topo == nil || cfg.Scheduler == nil {
		return nil, fmt.Errorf("control: Model, Topo and Scheduler are required")
	}
	if cfg.Profile == nil {
		return nil, fmt.Errorf("control: Profile is required")
	}
	if clk == nil {
		return nil, fmt.Errorf("control: clock is required")
	}
	l := &Loop{
		cfg:      cfg,
		clk:      clk,
		eng:      engine.New(cfg.Model, cfg.Topo, cfg.Profile, cfg.Engine),
		states:   make(map[workload.RequestID]*sched.RequestState),
		inflight: make(map[engine.RunID]*engine.Run),
		runEv:    make(map[engine.RunID]eventq.Handle),
		res: &Result{
			SchedulerName: cfg.Scheduler.Name(),
			NGPU:          cfg.Topo.N,
		},
		roundBased: cfg.Scheduler.RoundDuration() > 0,
		tau:        cfg.Scheduler.RoundDuration(),
		grid:       clk.Now(),
	}
	if o, ok := cfg.Scheduler.(interface{ Overhead() time.Duration }); ok {
		l.schedOver = o.Overhead()
	}
	if e, ok := cfg.Scheduler.(interface{ EagerAdmission() bool }); ok {
		l.eager = e.EagerAdmission()
	}
	return l, nil
}

// Engine exposes the loop-owned execution engine for adapter telemetry
// (busy seconds, failed mask, memory accounting). Read it only from the
// goroutine driving the loop.
func (l *Loop) Engine() *engine.Engine { return l.eng }

// Result exposes the loop-owned accumulator. Use Finalize or SnapshotResult
// for a consistent view with engine telemetry filled in.
func (l *Loop) Result() *Result { return l.res }

// Unfinished reports how many scheduled or admitted requests have not been
// finalized — the simulator's termination condition.
func (l *Loop) Unfinished() int { return l.left }

// Running reports how many requests belong to in-flight blocks. Between
// blocks a request is pending again.
func (l *Loop) Running() int { return len(l.running) }

// StateCount reports tracked (non-finalized) request states; it must drain
// to zero with Unfinished, or the tracker leaks.
func (l *Loop) StateCount() int { return len(l.states) }

// ScheduleArrival enqueues a trace request to arrive at its Arrival time
// (simulator pre-scheduling).
func (l *Loop) ScheduleArrival(r *workload.Request) {
	l.left++
	l.q.Push(r.Arrival, evArrival, r)
}

// ScheduleFault enqueues a fail-stop fault (and its optional recovery).
func (l *Loop) ScheduleFault(f simgpu.Fault) {
	l.q.Push(f.FailAt, evGPUFail, simgpu.MaskOf(f.GPU))
	if f.RecoverAt > 0 {
		l.q.Push(f.RecoverAt, evGPURecover, simgpu.MaskOf(f.GPU))
	}
}

// ScheduleResize enqueues a planned capacity change (simulator
// pre-scheduling). Like ApplyResize, it stages the new mask when dispatched;
// round-based schedulers apply it at the next effective round tick.
func (l *Loop) ScheduleResize(r simgpu.Resize) {
	l.q.Push(r.At, evResize, r.NewMask)
}

// NextEvent peeks the earliest pending event without removing it, or nil.
func (l *Loop) NextEvent() *eventq.Event { return l.q.Peek() }

// PopEvent removes and returns the earliest pending event, or nil.
func (l *Loop) PopEvent() *eventq.Event { return l.q.Pop() }

// Dispatch handles one popped event. The caller is responsible for clock
// discipline: the simulator advances its virtual clock to ev.At first; the
// driver dispatches events whose time has passed on the real clock.
func (l *Loop) Dispatch(ev *eventq.Event) error {
	if ev == nil {
		return nil
	}
	now := l.clk.Now()
	var err error
	switch ev.Kind {
	case evArrival:
		l.admit(now, ev.Payload.(*workload.Request))
	case evRunDone:
		err = l.onRunDone(now, ev.Payload.(*engine.Run))
	case evRoundTick:
		l.onRoundTick(ev.At, now)
	case evGPUFail:
		l.onGPUFail(now, ev.Payload.(simgpu.Mask))
	case evGPURecover:
		l.onGPURecover(now, ev.Payload.(simgpu.Mask))
	case evResize:
		l.stageResize(now, ev.Payload.(simgpu.Mask))
	}
	// The event has been consumed; hand its storage back to the queue so the
	// next Push reuses it instead of allocating.
	l.q.Recycle(ev)
	return err
}

// Arrive admits a request right now (driver path: arrivals come from a
// channel, not the pre-scheduled queue). The request's Arrival is stamped
// from the clock.
func (l *Loop) Arrive(r *workload.Request) {
	l.left++
	l.admit(l.clk.Now(), r)
}

// Fail injects a fail-stop fault for the masked GPUs right now.
func (l *Loop) Fail(mask simgpu.Mask) { l.onGPUFail(l.clk.Now(), mask) }

// Recover returns previously failed GPUs to the pool right now.
func (l *Loop) Recover(mask simgpu.Mask) { l.onGPURecover(l.clk.Now(), mask) }

// ApplyResize requests that the shard's owned GPU set become newMask. For
// round-based schedulers the change takes effect at the next effective round
// tick (after overrun deferral, before planning) so mid-round state never
// sees a capacity flip; staging is last-writer-wins. Event-driven schedulers
// have no round structure, so the resize applies immediately and replans.
func (l *Loop) ApplyResize(newMask simgpu.Mask) {
	l.stageResize(l.clk.Now(), newMask)
}

// stageResize is the shared entry for ApplyResize and pre-scheduled evResize
// events.
func (l *Loop) stageResize(now time.Duration, newMask simgpu.Mask) {
	if !l.roundBased {
		l.applyResize(now, newMask)
		l.plan(now)
		return
	}
	l.resizeStaged = true
	l.resizeMask = newMask
	l.arm(now)
}

// arm re-arms a parked round grid: it queues one tick at the first grid
// point at or after now. A loop with a tick already queued is left alone.
func (l *Loop) arm(now time.Duration) {
	if !l.roundBased || l.armed {
		return
	}
	at := l.grid
	if at < now {
		at += (now - at + l.tau - 1) / l.tau * l.tau
	}
	l.armed = true
	l.q.Push(at, evRoundTick, nil)
}

// Finalize fills engine telemetry and the makespan into the result and
// returns it (shared storage, not a copy).
func (l *Loop) Finalize() *Result {
	l.fillTelemetry()
	return l.res
}

// SnapshotResult returns a deep copy of the result with telemetry filled —
// the driver's point-in-time view for trace export and Gantt rendering.
func (l *Loop) SnapshotResult() *Result {
	l.fillTelemetry()
	return l.res.Clone()
}

func (l *Loop) fillTelemetry() {
	l.res.Makespan = l.clk.Now()
	l.res.GPUBusySeconds = l.eng.GPUBusySeconds()
	l.res.Remaps = l.eng.Remaps()
	l.res.Warmups = l.eng.Warmups()
	l.res.RunsAborted = l.eng.RunsAborted()
	l.res.RunsPreempted = l.eng.RunsPreempted()
	l.res.Resizes = l.eng.Resizes()
}

// admit runs the arrival path: trim, track, queue, and (for event-driven or
// eager round-based schedulers) plan immediately.
func (l *Loop) admit(now time.Duration, r *workload.Request) {
	if l.cfg.Hooks.Arriving != nil {
		l.cfg.Hooks.Arriving(now, r)
	}
	r.Arrival = now
	steps := r.Steps
	if l.cfg.Trimmer != nil {
		skip := l.cfg.Trimmer.OnArrival(r.Prompt, r.Res, steps, now)
		if skip < 0 {
			skip = 0
		}
		if skip >= steps {
			skip = steps - 1 // at least one step always runs
		}
		r.SkippedSteps = skip
		steps -= skip
	}
	st := &sched.RequestState{
		Req:       r,
		Remaining: steps,
	}
	l.states[r.ID] = st
	l.enqueue(st)
	if l.cfg.Hooks.Admitted != nil {
		l.cfg.Hooks.Admitted(now, r)
	}
	l.arm(now)
	if !l.roundBased || (l.eager && l.eng.Free() != 0) {
		l.plan(now)
	}
}

func (l *Loop) onRunDone(now time.Duration, run *engine.Run) error {
	if err := l.eng.Finish(run); err != nil {
		return err
	}
	if l.cfg.Hooks.RunFinished != nil {
		l.cfg.Hooks.RunFinished(now, run)
	}
	delete(l.inflight, run.ID)
	delete(l.runEv, run.ID)
	l.logRun(run, run.End, false, false)

	// Iterate members in assignment order, not map order, so decode-queue
	// ordering (and therefore completion times) is deterministic.
	for _, id := range run.Asg.Requests {
		steps, ok := run.Steps[id]
		if !ok {
			continue
		}
		st := l.states[id]
		l.clearRunning(st)
		st.Started = true
		st.Remaining -= steps
		if approx := sched.ApproxSteps(steps, run.Asg.CacheInterval); approx > 0 {
			st.QualityUsed += approx
			if l.cfg.Hooks.StepsElided != nil {
				l.cfg.Hooks.StepsElided(now, id, approx)
			}
		}
		st.LastGroup = run.Asg.Group
		st.StepsByDegree.Add(run.Degree, steps)
		if st.Remaining <= 0 {
			l.finish(now, st)
		} else if l.cfg.DropLateFactor > 0 && l.pastDrop(now, st) {
			l.drop(now, st, DropExpired)
		} else {
			l.enqueue(st)
		}
	}
	// Observers were notified and the record copied; the run struct can be
	// recycled for a future Start.
	l.eng.Release(run)
	if !l.roundBased {
		l.plan(now)
	}
	return nil
}

// logRun appends run's record, ending at end, to the result's run log.
// aborted marks a block a fault or a resize cut short, preempted the resize.
func (l *Loop) logRun(run *engine.Run, end time.Duration, aborted, preempted bool) {
	l.res.AppendRun(RunRecord{
		Start:         run.Start,
		End:           end,
		Res:           run.Res,
		Group:         run.Asg.Group,
		Degree:        int32(run.Degree),
		Steps:         int32(run.Asg.Steps),
		CacheInterval: int32(run.Asg.CacheInterval),
		BestEffort:    run.Asg.BestEffort,
		Batched:       run.Batched,
		Aborted:       aborted,
		Preempted:     preempted,
	}, run.Asg.Requests)
}

// onRoundTick fires a τ boundary. at is the tick's scheduled time (the grid
// anchor rescheduling derives from, so late wake-ups on the real clock never
// accumulate drift); now is the clock reading.
func (l *Loop) onRoundTick(at, now time.Duration) {
	// If a round-aligned block is still running (noise overrun), defer the
	// tick until it ends so every round starts from a clean boundary.
	latest := time.Duration(-1)
	for _, run := range l.inflight {
		if run.Asg.RoundAligned && run.End > latest {
			latest = run.End
		}
	}
	if latest > now {
		l.q.Push(latest+time.Microsecond, evRoundTick, nil)
		return
	}
	// A staged capacity change lands exactly here: the boundary is clean
	// (no round-aligned overrun), the plan below sees the new capacity, and
	// every plan before the next tick sees the same one.
	if l.resizeStaged {
		l.resizeStaged = false
		l.applyResize(now, l.resizeMask)
	}
	l.res.RoundTicks++
	if l.cfg.Hooks.RoundTick != nil {
		l.cfg.Hooks.RoundTick(at, now)
	}
	l.plan(now)
	// With nothing pending, in flight or staged the loop parks: no next tick
	// until admit or stageResize re-arms the grid.
	l.grid = at + l.tau
	l.armed = l.pending() != 0 || len(l.inflight) != 0 || l.resizeStaged
	if l.armed {
		l.q.Push(l.grid, evRoundTick, nil)
	}
}

// plan applies the drop policy, then invokes the scheduler and starts the
// returned assignments.
func (l *Loop) plan(now time.Duration) {
	if v := l.cfg.Profile.Version(); v != l.lateVersion {
		l.unlate()
		l.lateVersion = v
	}
	l.expire(now)
	// The context and its slices are loop-owned scratch, rebuilt in place
	// every round; hook observers already contract to read them only
	// synchronously. Pending and Late are the loop's own lists, which
	// dispatch below edits: nothing may read them once the first assignment
	// starts.
	l.ctx = sched.PlanContext{
		Now:      now,
		Free:     l.eng.Free(),
		Capacity: l.eng.Capacity(),
		Pending:  l.queue,
		Late:     l.late,
		LateDue:  l.lateDue,
		Running:  l.snapshotRunning(),
		Tracked:  l.states,
		Profile:  l.cfg.Profile,
		Topo:     l.cfg.Topo,
	}
	ctx := &l.ctx
	if l.pending() == 0 {
		return
	}
	start := time.Now()
	plan := l.cfg.Scheduler.Plan(ctx)
	solve := time.Since(start)
	l.res.PlanCalls++
	if l.cfg.Hooks.PlanComputed != nil {
		l.cfg.Hooks.PlanComputed(now, solve, ctx)
	}
	if err := l.checker.Validate(ctx, plan); err != nil {
		// A scheduler bug must not corrupt serving state: count it, skip
		// this plan, and retry at the next event. Strict mode (simulator)
		// additionally aborts the run — experiment numbers from a buggy
		// scheduler are worse than no numbers.
		l.res.PlanRejected++
		if l.cfg.Hooks.PlanRejected != nil {
			l.cfg.Hooks.PlanRejected(now, err)
		}
		if l.cfg.Strict {
			panic(fmt.Sprintf("control: scheduler %q produced invalid plan: %v", l.cfg.Scheduler.Name(), err))
		}
		return
	}
	if l.cfg.Hooks.Planned != nil {
		l.cfg.Hooks.Planned(now, ctx, plan)
	}
	for _, asg := range plan {
		run, err := l.eng.Start(now, asg, l.states, l.dispatchDelay())
		if err != nil {
			l.res.StartFailed++
			if l.cfg.Hooks.StartFailed != nil {
				l.cfg.Hooks.StartFailed(now, err)
			}
			if l.cfg.Strict {
				panic(fmt.Sprintf("control: engine rejected validated assignment: %v", err))
			}
			continue
		}
		if l.cfg.Hooks.RunStarted != nil {
			l.cfg.Hooks.RunStarted(now, run)
		}
		for _, id := range asg.Requests {
			st := l.states[id]
			l.setRunning(st)
			l.unqueue(st)
			if l.cfg.Hooks.Started != nil {
				l.cfg.Hooks.Started(now, id)
			}
		}
		l.inflight[run.ID] = run
		l.runEv[run.ID] = l.q.Push(run.End, evRunDone, run)
	}
	l.settleLate(now)
}

// settleLate moves the queued requests whose late mark holds, which the
// plan just stamped or found, into late, so later rounds do not walk them.
func (l *Loop) settleLate(now time.Duration) {
	kept := l.queue[:0]
	for _, st := range l.queue {
		if !st.LateHolds(l.cfg.Profile, now) {
			kept = append(kept, st)
			continue
		}
		i, _ := slices.BinarySearchFunc(l.late, st, sched.ArrivalOrder)
		l.late = slices.Insert(l.late, i, st)
		l.lateDue = slices.Insert(l.lateDue, i, st.Late.Deadline)
	}
	clear(l.queue[len(kept):])
	l.queue = kept
}

// unlate returns every request in late to the queue: after a profile
// version bump no mark holds.
func (l *Loop) unlate() {
	l.queue = append(l.queue, l.late...)
	slices.SortFunc(l.queue, sched.ArrivalOrder)
	clear(l.late)
	l.late, l.lateDue = l.late[:0], l.lateDue[:0]
}

// expire applies the timeout policy at planning boundaries: a request still
// pending past DropLateFactor × SLO is abandoned — its client is gone, and
// keeping it would let the queue grow without bound under overload. Drops
// happen in (arrival, ID) order across queue and late.
func (l *Loop) expire(now time.Duration) {
	if l.cfg.DropLateFactor <= 0 {
		return
	}
	q, lq, lt := l.queue[:0], l.late[:0], l.lateDue[:0]
	w := l.walk()
	for st, i, late := w.next(); st != nil; st, i, late = w.next() {
		switch {
		case l.pastDrop(now, st):
			l.drop(now, st, DropExpired)
		case late:
			lq, lt = append(lq, st), append(lt, l.lateDue[i])
		default:
			q = append(q, st)
		}
	}
	clear(l.queue[len(q):])
	clear(l.late[len(lq):])
	l.queue, l.late, l.lateDue = q, lq, lt
}

// onGPUFail injects a fail-stop fault: the engine aborts intersecting
// blocks, credits completed steps, and this layer requeues the surviving
// members so the next plan re-packs them on the remaining GPUs — paying
// latent re-transfer and group re-warm-up per the §5 cost model. With
// NoRequeueOnFault the victims are dropped instead (the ablation).
func (l *Loop) onGPUFail(now time.Duration, mask simgpu.Mask) {
	prevFailed := l.eng.FailedGPUs()
	failures := l.eng.FailGPUs(now, mask)
	if newly := l.eng.FailedGPUs().Without(prevFailed); newly != 0 && l.cfg.Hooks.GPUFailed != nil {
		l.cfg.Hooks.GPUFailed(now, newly)
	}
	// The engine returns aborts in run-ID order, so the requeue (and
	// therefore pending) order is deterministic.
	for _, f := range failures {
		if l.cfg.Hooks.RunAborted != nil {
			l.cfg.Hooks.RunAborted(now, f.Run, f.StepsDone)
		}
		if h, ok := l.runEv[f.Run.ID]; ok {
			l.q.Cancel(h)
			delete(l.runEv, f.Run.ID)
		}
		delete(l.inflight, f.Run.ID)
		l.logRun(f.Run, now, true, false)
		for _, id := range f.Run.Asg.Requests {
			done, ok := f.StepsDone[id]
			if !ok {
				continue
			}
			st := l.states[id]
			l.clearRunning(st)
			if done > 0 {
				st.Started = true
				st.Remaining -= done
				// Credit the completed prefix's approximated steps with the
				// same ApproxSteps convention the planner budgeted with, so a
				// fault can never leak quality budget (ApproxSteps is monotone
				// in the step count: credit ≤ the full block's debit).
				if approx := sched.ApproxSteps(done, f.Run.Asg.CacheInterval); approx > 0 {
					st.QualityUsed += approx
					if l.cfg.Hooks.StepsElided != nil {
						l.cfg.Hooks.StepsElided(now, id, approx)
					}
				}
				st.StepsByDegree.Add(f.Run.Degree, done)
			}
			switch {
			case st.Remaining <= 0:
				// Every step finished before the fault; only the decode
				// remained, and the VAE runs outside the SP group.
				l.finish(now, st)
			case l.cfg.NoRequeueOnFault:
				l.drop(now, st, DropFault)
			case l.cfg.DropLateFactor > 0 && l.pastDrop(now, st):
				l.drop(now, st, DropExpired)
			default:
				l.enqueue(st)
				if l.cfg.Hooks.Requeued != nil {
					l.cfg.Hooks.Requeued(now, id, RequeueFault)
				}
			}
		}
		l.eng.Release(f.Run)
	}
	// Placement preservation must not steer survivors back onto dead GPUs.
	for _, st := range l.states {
		st.LastGroup = st.LastGroup.Without(mask)
	}
	if !l.roundBased {
		l.plan(now)
	}
}

// applyResize performs an effective capacity change. It mirrors onGPUFail's
// bookkeeping with the planned-handoff semantics the resize path guarantees:
// preempted members keep every completed step, their latents survive on the
// retained group members, and they are ALWAYS requeued (NoRequeueOnFault is a
// fault-recovery ablation and does not apply — no machine died) unless the
// drop policy has already expired them.
func (l *Loop) applyResize(now time.Duration, newMask simgpu.Mask) {
	newMask &= l.cfg.Topo.AllMask()
	prev := l.eng.Capacity()
	removed := prev.Without(newMask)
	added := newMask.Without(prev)
	if removed == 0 && added == 0 {
		return
	}
	preemptions := l.eng.Resize(now, newMask)
	l.res.Resizes++
	if l.cfg.Hooks.Resized != nil {
		l.cfg.Hooks.Resized(now, removed, added)
	}
	// Run-ID order, as on the fault path.
	for _, p := range preemptions {
		if l.cfg.Hooks.RunPreempted != nil {
			l.cfg.Hooks.RunPreempted(now, p.Run, p.StepsDone)
		}
		if h, ok := l.runEv[p.Run.ID]; ok {
			l.q.Cancel(h)
			delete(l.runEv, p.Run.ID)
		}
		delete(l.inflight, p.Run.ID)
		l.logRun(p.Run, now, true, true)
		for _, id := range p.Run.Asg.Requests {
			done, ok := p.StepsDone[id]
			if !ok {
				continue
			}
			st := l.states[id]
			l.clearRunning(st)
			if done > 0 {
				st.Started = true
				st.Remaining -= done
				// Same prefix-credit convention as the fault path.
				if approx := sched.ApproxSteps(done, p.Run.Asg.CacheInterval); approx > 0 {
					st.QualityUsed += approx
					if l.cfg.Hooks.StepsElided != nil {
						l.cfg.Hooks.StepsElided(now, id, approx)
					}
				}
				st.StepsByDegree.Add(p.Run.Degree, done)
			}
			switch {
			case st.Remaining <= 0:
				l.finish(now, st)
			case l.cfg.DropLateFactor > 0 && l.pastDrop(now, st):
				l.drop(now, st, DropExpired)
			default:
				l.enqueue(st)
				if l.cfg.Hooks.Requeued != nil {
					l.cfg.Hooks.Requeued(now, id, RequeueResize)
				}
			}
		}
		l.eng.Release(p.Run)
	}
	// Placement preservation must not steer requests toward GPUs the shard
	// no longer owns.
	if removed != 0 {
		for _, st := range l.states {
			st.LastGroup = st.LastGroup.Without(removed)
		}
	}
}

// onGPURecover returns failed GPUs to the pool; round-based schedulers see
// the capacity at the next tick, event-driven ones replan immediately.
func (l *Loop) onGPURecover(now time.Duration, mask simgpu.Mask) {
	recovered := l.eng.RecoverGPUs(mask)
	if recovered == 0 {
		return
	}
	if l.cfg.Hooks.GPURecovered != nil {
		l.cfg.Hooks.GPURecovered(now, recovered)
	}
	if !l.roundBased {
		l.plan(now)
	}
}

// dispatchDelay is the control-plane latency charged per block.
// Round-based scheduling pays its decision loop (already budgeted in the
// scheduler's window); event-driven baselines dispatch directly.
func (l *Loop) dispatchDelay() time.Duration {
	if l.roundBased {
		return l.schedOver
	}
	return 0
}

// pending counts the tracked requests that are not running.
func (l *Loop) pending() int { return len(l.queue) + len(l.late) }

// enqueue returns a tracked, non-running request with steps left to the
// queue. It goes to queue, not late, even if its mark holds: the next plan
// reads the mark and settleLate moves it.
func (l *Loop) enqueue(st *sched.RequestState) {
	i, _ := slices.BinarySearchFunc(l.queue, st, sched.ArrivalOrder)
	l.queue = slices.Insert(l.queue, i, st)
}

// unqueue removes st from whichever of queue and late holds it: one binary
// search in each at most.
func (l *Loop) unqueue(st *sched.RequestState) {
	if i, ok := slices.BinarySearchFunc(l.queue, st, sched.ArrivalOrder); ok {
		l.queue = slices.Delete(l.queue, i, i+1)
	} else if i, ok := slices.BinarySearchFunc(l.late, st, sched.ArrivalOrder); ok {
		l.late = slices.Delete(l.late, i, i+1)
		l.lateDue = slices.Delete(l.lateDue, i, i+1)
	}
}

// pendingWalk merges queue and late in (arrival, ID) order.
type pendingWalk struct {
	queue, late []*sched.RequestState
	i, j        int
}

func (l *Loop) walk() pendingWalk { return pendingWalk{queue: l.queue, late: l.late} }

// next returns the next pending request, its index in the list it came from
// and whether that list is late; st is nil once both lists are exhausted.
func (w *pendingWalk) next() (st *sched.RequestState, i int, late bool) {
	switch {
	case w.j < len(w.late) && (w.i == len(w.queue) || sched.ArrivalOrder(w.late[w.j], w.queue[w.i]) < 0):
		w.j++
		return w.late[w.j-1], w.j - 1, true
	case w.i < len(w.queue):
		w.i++
		return w.queue[w.i-1], w.i - 1, false
	}
	return nil, 0, false
}

// setRunning / clearRunning keep l.running in sync with st.Running. All
// Running flips must go through them.
func (l *Loop) setRunning(st *sched.RequestState) {
	if !st.Running {
		st.Running = true
		l.running = append(l.running, st)
	}
}

func (l *Loop) clearRunning(st *sched.RequestState) {
	if !st.Running {
		return
	}
	st.Running = false
	for i, r := range l.running {
		if r == st {
			last := len(l.running) - 1
			l.running[i] = l.running[last]
			l.running[last] = nil
			l.running = l.running[:last]
			return
		}
	}
}

func (l *Loop) snapshotRunning() []*sched.RequestState {
	out := append(l.runSnap[:0], l.running...)
	// l.running is insertion/removal order; sort so scheduler inputs are
	// reproducible (same total order the old map walk produced).
	slices.SortFunc(out, func(a, b *sched.RequestState) int {
		if a.Req.ID < b.Req.ID {
			return -1
		}
		if a.Req.ID > b.Req.ID {
			return 1
		}
		return 0
	})
	l.runSnap = out
	return out
}

// dropLimit is the absolute instant past which a request is abandoned under
// the timeout policy: arrival + DropLateFactor × SLO. Every drop comparison
// (queued expiry, post-fault requeue, late-delivery timeout) must go through
// DropLimit/pastDrop so sim and driver share one boundary convention: a
// request exactly AT the limit is still in budget; strictly past it is out.
func (l *Loop) dropLimit(r *workload.Request) time.Duration {
	return r.Arrival + time.Duration(float64(r.SLO)*l.cfg.DropLateFactor)
}

// DropLimit exposes the timeout boundary for observers (tests, the router's
// feasibility probe). Zero-valued when dropping is disabled semantics still
// hold: callers must gate on DropLateFactor > 0 themselves, as the loop does.
func (l *Loop) DropLimit(r *workload.Request) time.Duration { return l.dropLimit(r) }

func (l *Loop) pastDrop(now time.Duration, st *sched.RequestState) bool {
	return now > l.dropLimit(st.Req)
}

func (l *Loop) finish(now time.Duration, st *sched.RequestState) {
	r := st.Req
	completion := l.eng.Decode(now, r.Res)
	l.eng.ReleaseLatent(r.ID)
	// Timeout semantics: a result delivered past DropLateFactor × SLO has
	// been abandoned by the client and counts as dropped (Figure 9's
	// "dropped/timeout" population). Shares dropLimit with pastDrop so a
	// completion exactly at the boundary is delivered, never dropped —
	// identical in sim and driver by construction.
	if l.cfg.DropLateFactor > 0 && completion > l.dropLimit(r) {
		l.finalize(now, Outcome{
			ID:           r.ID,
			Res:          r.Res,
			Arrival:      r.Arrival,
			Deadline:     r.Deadline(),
			Dropped:      true,
			Cause:        DropTimeout,
			Steps:        r.Steps - r.SkippedSteps,
			Skipped:      r.SkippedSteps,
			Approximated: st.QualityUsed,
		})
		return
	}
	out := Outcome{
		ID:           r.ID,
		Res:          r.Res,
		Arrival:      r.Arrival,
		Deadline:     r.Deadline(),
		Completion:   completion,
		Met:          completion <= r.Deadline(),
		Latency:      completion - r.Arrival,
		AvgDegree:    st.AvgDegree(),
		Steps:        r.Steps - r.SkippedSteps,
		Skipped:      r.SkippedSteps,
		Approximated: st.QualityUsed,
	}
	l.res.Outcomes = append(l.res.Outcomes, out)
	l.left--
	l.res.Completed++
	if out.Met {
		l.res.Met++
	}
	delete(l.states, r.ID)
	if l.cfg.Hooks.Finished != nil {
		l.cfg.Hooks.Finished(now, out)
	}
	if l.cfg.Trimmer != nil {
		l.cfg.Trimmer.OnComplete(r.Prompt, r.Res, completion)
	}
}

func (l *Loop) drop(now time.Duration, st *sched.RequestState, cause DropCause) {
	r := st.Req
	l.eng.ReleaseLatent(r.ID)
	l.finalize(now, Outcome{
		ID:           r.ID,
		Res:          r.Res,
		Arrival:      r.Arrival,
		Deadline:     r.Deadline(),
		Dropped:      true,
		Cause:        cause,
		Steps:        r.Steps - r.SkippedSteps,
		Skipped:      r.SkippedSteps,
		Approximated: st.QualityUsed,
	})
}

// finalize retires a dropped request (completions go through finish, which
// also feeds the trimmer).
func (l *Loop) finalize(now time.Duration, out Outcome) {
	l.res.Outcomes = append(l.res.Outcomes, out)
	l.left--
	l.res.Dropped++
	delete(l.states, out.ID)
	if l.cfg.Hooks.Dropped != nil {
		l.cfg.Hooks.Dropped(now, out)
	}
}
