package telemetry

import (
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/engine"
	"tetriserve/internal/lifecycle"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/trace"
	"tetriserve/internal/workload"
)

// Default histogram bucket layouts (seconds). End-to-end latency spans the
// paper's SLO range (1.5 s–5 s budgets, DropLateFactor multiples above);
// plan latency targets the sub-10 ms control-plane claim.
var (
	LatencyBuckets     = []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32, 64}
	PlanLatencyBuckets = []float64{1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 0.1}
	// RoundDurationBuckets covers the τ grid (50–250 ms typical) plus the
	// overrun-deferral tail where a noisy block pushes the boundary out.
	RoundDurationBuckets = []float64{0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
	// PhaseBuckets resolve the per-phase latency decomposition: plan-wait
	// and queue phases live in the tens-of-milliseconds-to-seconds range,
	// compute segments up to the largest resolutions' multi-second blocks.
	PhaseBuckets = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2, 4, 8, 16}
)

// Plane bundles the three telemetry pillars — metrics registry, round
// explainer, trace bus — behind a single Hooks() attachment point. One
// plane observes one control loop (the hook path is single-goroutine);
// scrapes and subscriptions are safe from any goroutine.
type Plane struct {
	Registry *Registry
	Rounds   *RoundLog
	Bus      *Bus

	requests, completed, sloMet *Counter
	dropped                     map[control.DropCause]*Counter
	requeued                    map[control.RequeueCause]*Counter
	requeuedVec                 *CounterVec
	stepsElided                 *Counter
	planCalls, planRejected     *Counter
	startFailed, roundTicks     *Counter
	runsBatched, runsSolo       *Counter
	runsAborted                 *Counter
	queueDepth, runningReqs     *Gauge
	failedGPUs, totalGPUs       *Gauge
	planLatency                 *Histogram
	roundDuration               *Histogram
	lastTick                    time.Duration
	tickSeen                    bool
	e2e                         *HistogramVec
	e2eByRes                    map[model.Resolution]*Histogram
	phaseSeconds                *HistogramVec
	phaseByClass                map[string]*[len(timelinePhases)]*Histogram
	attainment                  *GaugeVec
	attainByTenant              map[string]*sloWindow

	// live counts admitted requests not yet finalized: work outstanding.
	live int
}

// NewPlane builds a plane with the full metric catalogue registered.
func NewPlane() *Plane {
	reg := NewRegistry()
	droppedVec := reg.CounterVec("tetriserve_dropped_total",
		"Requests dropped, by cause (expired queue wait, late delivery timeout, GPU fault ablation).", "cause")
	p := &Plane{
		Registry: reg,
		Rounds:   NewRoundLog(0),
		requests: reg.Counter("tetriserve_requests_total",
			"Requests admitted to the control loop."),
		completed: reg.Counter("tetriserve_completed_total",
			"Requests that completed (decode delivered)."),
		sloMet: reg.Counter("tetriserve_slo_met_total",
			"Completed requests that met their SLO deadline."),
		dropped: map[control.DropCause]*Counter{
			control.DropExpired: droppedVec.With(string(control.DropExpired)),
			control.DropTimeout: droppedVec.With(string(control.DropTimeout)),
			control.DropFault:   droppedVec.With(string(control.DropFault)),
		},
		stepsElided: reg.Counter("tetriserve_steps_elided_total",
			"Denoising steps approximated via step caching across retired blocks."),
		planCalls: reg.Counter("tetriserve_plan_calls_total",
			"Scheduler invocations."),
		planRejected: reg.Counter("tetriserve_plan_rejected_total",
			"Plans refused by the validator."),
		startFailed: reg.Counter("tetriserve_start_failed_total",
			"Validated assignments the engine refused to start."),
		roundTicks: reg.Counter("tetriserve_round_ticks_total",
			"Fired τ round boundaries (0 for event-driven schedulers)."),
		runsAborted: reg.Counter("tetriserve_runs_aborted_total",
			"Step blocks killed mid-flight by GPU faults."),
		queueDepth: reg.Gauge("tetriserve_queue_depth",
			"Admitted requests not in an in-flight block."),
		runningReqs: reg.Gauge("tetriserve_running_requests",
			"Requests in an in-flight step block."),
		failedGPUs: reg.Gauge("tetriserve_failed_gpus",
			"GPUs currently out of service."),
		totalGPUs: reg.Gauge("tetriserve_gpus",
			"GPUs in the cluster topology."),
		planLatency: reg.Histogram("tetriserve_plan_latency_seconds",
			"Scheduler solve latency per plan call.", PlanLatencyBuckets),
		roundDuration: reg.Histogram("tetriserve_round_duration_seconds",
			"Effective τ round length of a loop with work outstanding (grid gap between consecutive fired boundaries, overrun deferral included).", RoundDurationBuckets),
		e2e: reg.HistogramVec("tetriserve_e2e_latency_seconds",
			"End-to-end latency of completed requests, by resolution.", LatencyBuckets, "resolution"),
		e2eByRes: map[model.Resolution]*Histogram{},
		phaseSeconds: reg.HistogramVec("tetriserve_phase_seconds",
			"Per-request phase latency decomposition (plan-wait, queue, compute), by resolution class.", PhaseBuckets, "phase", "class"),
		attainment: reg.GaugeVec("tetriserve_slo_attainment",
			"SLO attainment over finalized requests, by tenant.", "tenant"),
		phaseByClass:   map[string]*[len(timelinePhases)]*Histogram{},
		attainByTenant: map[string]*sloWindow{},
	}
	requeuedVec := reg.CounterVec("tetriserve_requeued_total",
		"Requests returned to the queue after a fault or resize interrupted their block, by cause.", "cause")
	p.requeuedVec = requeuedVec
	p.requeued = map[control.RequeueCause]*Counter{
		control.RequeueFault:  requeuedVec.With(string(control.RequeueFault)),
		control.RequeueResize: requeuedVec.With(string(control.RequeueResize)),
	}
	runsVec := reg.CounterVec("tetriserve_runs_total",
		"Executed step blocks, split by selective batching.", "batched")
	p.runsBatched = runsVec.With("true")
	p.runsSolo = runsVec.With("false")
	p.Bus = NewBus(
		reg.Counter("tetriserve_trace_dropped_events_total",
			"Trace events dropped because a follow subscriber's buffer was full."),
		reg.Gauge("tetriserve_trace_subscribers",
			"Live /v1/trace?follow=1 subscribers."),
	)
	return p
}

// BindGPUBusy registers tetriserve_gpu_busy_seconds_total as a pull-time
// counter reading the adapter's authoritative engine accumulator, so the
// scrape agrees exactly with /v1/stats instead of re-deriving GPU·seconds
// hook-side. fn must be safe from any goroutine.
func (p *Plane) BindGPUBusy(fn func() float64) {
	p.Registry.CounterFunc("tetriserve_gpu_busy_seconds_total",
		"Accumulated GPU·seconds of executed step blocks.", fn)
}

// SetClusterSize records the topology size for utilization math.
func (p *Plane) SetClusterSize(n int) { p.totalGPUs.Set(float64(n)) }

// Hooks returns the control-loop observer callbacks. Attach with
// Hooks.Then; all callbacks run on the loop goroutine.
func (p *Plane) Hooks() control.Hooks {
	return control.Hooks{
		Admitted:     p.onAdmitted,
		Requeued:     p.onRequeued,
		StepsElided:  func(_ time.Duration, _ workload.RequestID, approx int) { p.stepsElided.Add(float64(approx)) },
		Finished:     p.onFinished,
		Dropped:      p.onDropped,
		PlanComputed: p.onPlanComputed,
		Planned:      p.onPlanned,
		PlanRejected: p.onPlanRejected,
		StartFailed:  func(time.Duration, error) { p.startFailed.Inc() },
		RoundTick:    p.onRoundTick,
		RunStarted:   p.onRunStarted,
		RunFinished:  p.onRunFinished,
		RunAborted:   p.onRunAborted,
		RunPreempted: func(_ time.Duration, run *engine.Run, _ map[workload.RequestID]int) { p.inBlock(run, -1) },
		GPUFailed:    func(_ time.Duration, m simgpu.Mask) { p.failedGPUs.Add(float64(m.Count())) },
		GPURecovered: func(_ time.Duration, m simgpu.Mask) { p.failedGPUs.Add(-float64(m.Count())) },
	}
}

func (p *Plane) onAdmitted(now time.Duration, r *workload.Request) {
	p.requests.Inc()
	p.live++
	p.queueDepth.Inc()
	if p.Bus.Active() {
		p.Bus.Publish(trace.Event{
			AtUS:       r.Arrival.Microseconds(),
			Kind:       trace.KindArrival,
			Requests:   []int{int(r.ID)},
			Resolution: r.Res.String(),
		})
	}
}

func (p *Plane) onRequeued(now time.Duration, id workload.RequestID, cause control.RequeueCause) {
	c, ok := p.requeued[cause]
	if !ok {
		// Future causes still count under their own label.
		c = p.requeuedVec.With(string(cause))
		p.requeued[cause] = c
	}
	c.Inc()
}

// onRoundTick counts the boundary and observes the effective round length —
// the gap between consecutive fired grid points, which exceeds τ exactly
// when overrun deferral pushed the boundary out. A series spans one stretch
// with work outstanding: a tick that finds nothing tracked is the last
// before the loop parks, so the gap to the next one is idle time, not a round.
func (p *Plane) onRoundTick(at, now time.Duration) {
	p.roundTicks.Inc()
	if p.tickSeen {
		p.roundDuration.Observe((at - p.lastTick).Seconds())
	}
	p.lastTick = at
	p.tickSeen = p.live != 0
}

// The queue gauges follow blocks: a block's members run from its start (dir
// +1) until it retires, aborts or is preempted (dir -1), and are queued
// otherwise. A request finalizes out of the queue, so finalize leaves the
// running gauge alone; the last finalization ends the round-duration series.
func (p *Plane) inBlock(run *engine.Run, dir float64) {
	n := dir * float64(len(run.Asg.Requests))
	p.queueDepth.Add(-n)
	p.runningReqs.Add(n)
}

func (p *Plane) finalize() {
	p.queueDepth.Dec()
	if p.live--; p.live == 0 {
		p.tickSeen = false
	}
}

func (p *Plane) onFinished(now time.Duration, o control.Outcome) {
	p.finalize()
	p.completed.Inc()
	if o.Met {
		p.sloMet.Inc()
	}
	h, ok := p.e2eByRes[o.Res]
	if !ok {
		h = p.e2e.With(o.Res.String())
		p.e2eByRes[o.Res] = h
	}
	h.Observe(o.Latency.Seconds())
	if p.Bus.Active() {
		p.Bus.Publish(trace.Event{
			AtUS:       o.Completion.Microseconds(),
			Kind:       trace.KindComplete,
			Requests:   []int{int(o.ID)},
			Resolution: o.Res.String(),
			Met:        o.Met,
			LatencyUS:  o.Latency.Microseconds(),
		})
	}
}

func (p *Plane) onDropped(now time.Duration, o control.Outcome) {
	p.finalize()
	c, ok := p.dropped[o.Cause]
	if !ok {
		// Future causes still count (under their own label) rather than
		// vanishing.
		c = p.Registry.CounterVec("tetriserve_dropped_total", "", "cause").With(string(o.Cause))
		p.dropped[o.Cause] = c
	}
	c.Inc()
	if p.Bus.Active() {
		p.Bus.Publish(trace.Event{
			AtUS:       o.Deadline.Microseconds(),
			Kind:       trace.KindDrop,
			Requests:   []int{int(o.ID)},
			Resolution: o.Res.String(),
		})
	}
}

func (p *Plane) onPlanComputed(now, latency time.Duration, ctx *sched.PlanContext) {
	p.planCalls.Inc()
	p.planLatency.Observe(latency.Seconds())
	p.Rounds.OnPlanComputed(now, latency, ctx)
}

func (p *Plane) onPlanned(now time.Duration, ctx *sched.PlanContext, plan []sched.Assignment) {
	p.Rounds.OnPlanned(now, ctx, plan)
}

func (p *Plane) onPlanRejected(now time.Duration, err error) {
	p.planRejected.Inc()
	p.Rounds.OnPlanRejected(now, err)
}

func (p *Plane) onRunStarted(now time.Duration, run *engine.Run) {
	p.inBlock(run, 1)
	if p.Bus.Active() {
		p.Bus.Publish(runEvent(trace.KindBlockStart, run.Start, run))
	}
}

func (p *Plane) onRunFinished(now time.Duration, run *engine.Run) {
	p.inBlock(run, -1)
	if run.Batched {
		p.runsBatched.Inc()
	} else {
		p.runsSolo.Inc()
	}
	if p.Bus.Active() {
		p.Bus.Publish(runEvent(trace.KindBlockEnd, run.End, run))
	}
}

func (p *Plane) onRunAborted(now time.Duration, run *engine.Run, _ map[workload.RequestID]int) {
	p.inBlock(run, -1)
	p.runsAborted.Inc()
	// An aborted block still counts as an executed block in the run log
	// (matching control.Result.Runs, which records it with End = fault
	// time), so the batched-share denominator stays consistent.
	if run.Batched {
		p.runsBatched.Inc()
	} else {
		p.runsSolo.Inc()
	}
	if p.Bus.Active() {
		p.Bus.Publish(runEvent(trace.KindBlockEnd, now, run))
	}
}

// sloWindow accumulates one tenant's attainment behind its exported gauge.
type sloWindow struct {
	met, done int
	g         *Gauge
}

// timelinePhases are the phases tetriserve_phase_seconds decomposes.
var timelinePhases = [...]lifecycle.SpanKind{lifecycle.SpanPlanWait, lifecycle.SpanQueue, lifecycle.SpanCompute}

// ObserveTimeline feeds one finalized lifecycle timeline into the phase
// histograms and the per-tenant attainment gauges — wire it as the
// lifecycle.Recorder's OnFinalized callback. Runs on the loop goroutine.
func (p *Plane) ObserveTimeline(tl *lifecycle.Timeline) {
	hs := p.phaseByClass[tl.Class]
	if hs == nil {
		hs = new([len(timelinePhases)]*Histogram)
		p.phaseByClass[tl.Class] = hs
	}
	for i, kind := range timelinePhases {
		// A phase the request spent no time in gets no observation, so a
		// (phase, class) series appears with its first positive one.
		secs := tl.Phase(kind)
		if secs <= 0 {
			continue
		}
		if hs[i] == nil {
			hs[i] = p.phaseSeconds.With(string(kind), tl.Class)
		}
		hs[i].Observe(secs)
	}
	w, ok := p.attainByTenant[tl.Tenant]
	if !ok {
		tenant := tl.Tenant
		if tenant == "" {
			tenant = "default"
		}
		w = &sloWindow{g: p.attainment.With(tenant)}
		p.attainByTenant[tl.Tenant] = w
	}
	w.done++
	if tl.Met {
		w.met++
	}
	w.g.Set(float64(w.met) / float64(w.done))
}

// runEvent materializes a block event in the exact shape trace.FromResult
// produces from the final Result, so the live feed is consistent with the
// post-hoc snapshot. Only called while a subscriber is attached.
func runEvent(kind trace.Kind, at time.Duration, run *engine.Run) trace.Event {
	ids := make([]int, len(run.Asg.Requests))
	for i, id := range run.Asg.Requests {
		ids[i] = int(id)
	}
	gpus := make([]int, 0, run.Degree)
	for _, g := range run.Asg.Group.IDs() {
		gpus = append(gpus, int(g))
	}
	return trace.Event{
		AtUS:       at.Microseconds(),
		Kind:       kind,
		Requests:   ids,
		Resolution: run.Res.String(),
		Degree:     run.Degree,
		GPUs:       gpus,
		Steps:      run.Asg.Steps,
		BestEffort: run.Asg.BestEffort,
		Batched:    run.Batched,
	}
}
