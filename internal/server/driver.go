// Package server is the online serving frontend: an HTTP API backed by a
// real-time driver that runs the exact same control plane as the offline
// simulator — internal/control's Loop, with all of its plan → dispatch,
// round-tick, fault-requeue, and drop/timeout logic — but against the wall
// clock (optionally time-scaled so hardware-scale latencies replay quickly
// in demos).
//
// The driver is a thin adapter: one goroutine owns the loop, receives
// arrivals and fault commands over channels, sleeps on the real clock until
// the loop's next event, and dispatches everything whose time has come. It
// keeps no per-job state of its own: a job's status is a view of its
// lifecycle timeline, the stats are the loop's own counts copied as each job
// finalizes and after each loop iteration, and the loop's shared Result
// gives it trace JSONL export and Gantt-compatible run records for free.
package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tetriserve/internal/cache"
	"tetriserve/internal/clock"
	"tetriserve/internal/control"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/engine"
	"tetriserve/internal/invariant"
	"tetriserve/internal/lifecycle"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/telemetry"
	"tetriserve/internal/workload"
)

// JobState is a request's lifecycle phase.
type JobState string

// Job lifecycle states. A job is running while it belongs to an in-flight
// block and queued from acceptance until then, including between blocks.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobCompleted JobState = "completed"
	// JobDropped marks a job the loop abandoned: the timeout policy expired
	// it (DropLateFactor × SLO passed without completion) or delivered it too
	// late.
	JobDropped JobState = "dropped"
)

// Job is the externally visible record of one generation request, rendered
// from its lifecycle timeline. Times carry the timeline's microsecond
// resolution.
type Job struct {
	ID        workload.RequestID `json:"id"`
	Width     int                `json:"width"`
	Height    int                `json:"height"`
	Steps     int                `json:"steps"`
	Skipped   int                `json:"skipped_steps"`
	State     JobState           `json:"state"`
	SLO       time.Duration      `json:"slo_ns"`
	Arrival   time.Duration      `json:"arrival_ns"`
	Completed time.Duration      `json:"completed_ns"`
	Latency   time.Duration      `json:"latency_ns"`
	MetSLO    bool               `json:"met_slo"`
	AvgDegree float64            `json:"avg_degree"`
	// TraceID is the fleet-wide lifecycle trace identifier (router-minted on
	// routed submissions, shard-derived otherwise).
	TraceID string `json:"trace_id,omitempty"`
	// Tenant is the admission-fairness identity the router attributed the
	// request to ("" = default).
	Tenant string `json:"tenant,omitempty"`
}

// DriverConfig configures the real-time serving driver.
type DriverConfig struct {
	Model *model.Model
	Topo  *simgpu.Topology
	// Scheduler is the policy to serve with (usually core.NewScheduler).
	Scheduler sched.Scheduler
	// Speedup maps simulated GPU time onto wall time (10 = ten times
	// faster than real hardware). Default 20.
	Speedup float64
	// Cache optionally enables Nirvana-style step skipping.
	Cache *cache.Cache
	// AdmitAnyResolution profiles non-standard (but valid) resolutions on
	// demand and derives their deadline by interpolating the SLO policy in
	// token count; off, such submissions are rejected. Default off.
	AdmitAnyResolution bool
	// DropLateFactor > 0 expires a job once now exceeds
	// arrival + SLO×factor without completion — control.Config's policy,
	// shared verbatim with sim.Config.DropLateFactor: queued jobs expire at
	// planning boundaries, requeued jobs at block completion, and a result
	// delivered too late counts as dropped. 0 disables expiry.
	DropLateFactor float64
	// CheckInvariants attaches the internal/invariant oracle to the serving
	// loop. Unlike the simulator the driver never panics on a violation —
	// the oracle records it and InvariantViolations exposes the list, so a
	// live deployment degrades loudly instead of dying.
	CheckInvariants bool
	// QualityBudgetFrac > 0 grants every submitted job a step-cache quality
	// budget of this fraction of its steps (floored), letting a cache-aware
	// scheduler approximate that many steps to rescue tight deadlines.
	// 0 (the default) disables the cache dimension for all jobs.
	QualityBudgetFrac float64
	// ShardName labels this driver's lifecycle timelines (the shard field in
	// exported spans); "" omits the label.
	ShardName string
	// LifecycleCapacity bounds retained finalized timelines (default 4096).
	LifecycleCapacity int
}

// faultCmd is an injected fault-plane command handled on the loop goroutine.
type faultCmd struct {
	mask    simgpu.Mask
	recover bool
}

// resizeCmd is an elastic capacity change handled on the loop goroutine: the
// loop's usable GPU set becomes exactly mask at its next round boundary.
type resizeCmd struct {
	mask simgpu.Mask
}

// probeCmd is a feasibility probe handled on the loop goroutine (the probe
// reads loop state, which only that goroutine may touch).
type probeCmd struct {
	res   model.Resolution
	steps int
	slo   time.Duration
	reply chan probeReply
}

type probeReply struct {
	feas control.Feasibility
	err  error
}

// Driver runs the serving loop.
type Driver struct {
	cfg  DriverConfig
	prof *costmodel.Profile
	clk  *clock.Real

	arrive  chan *workload.Request
	faultc  chan faultCmd
	resizec chan resizeCmd
	snapc   chan chan *control.Result
	probec  chan probeCmd
	// digestc carries a new digest subscriber's mailbox to the loop, which
	// fills it with the current digest.
	digestc chan chan ShardDigest
	digests digestFeed
	stop    chan struct{}
	// stopped closes after the loop goroutine has published its final
	// result snapshot.
	stopped chan struct{}

	stopOnce sync.Once
	// started reports that Start launched the loop goroutine.
	started atomic.Bool

	mu     sync.Mutex
	nextID workload.RequestID
	// accepted counts jobs handed to the arrive channel.
	accepted int
	// final is the loop's last result snapshot, published at shutdown so
	// Result keeps working after Stop.
	final *control.Result
	// view is the loop's state as of its last iteration, published by the
	// loop goroutine so Snapshot never races it.
	view loopView
	// oracle is set by the loop goroutine before the control loop starts
	// (guarded by mu for the cross-goroutine read in InvariantViolations).
	oracle *invariant.Oracle

	// plane is the live telemetry plane (metrics registry, round explainer,
	// trace bus). Its GPU-busy counter is bound to view, so /metrics and
	// /v1/stats agree exactly.
	plane *telemetry.Plane
	// rec assembles per-request span timelines from the same hook stream:
	// JobStatus renders them, and finalized ones feed the plane's phase
	// histograms and attainment gauges via ObserveTimeline.
	rec *lifecycle.Recorder
}

// loopView is what Snapshot reads of the loop: its Stats less what Snapshot
// derives (Queued, SAR and the GPU lists), and the masks the lists come from.
type loopView struct {
	stats            Stats
	failed, capacity simgpu.Mask
}

// NewDriver builds and validates a driver (not yet running).
func NewDriver(cfg DriverConfig) (*Driver, error) {
	if cfg.Model == nil || cfg.Topo == nil || cfg.Scheduler == nil {
		return nil, fmt.Errorf("server: Model, Topo and Scheduler are required")
	}
	if cfg.Speedup <= 0 {
		cfg.Speedup = 20
	}
	est := costmodel.NewEstimator(cfg.Model, cfg.Topo)
	prof := costmodel.BuildProfile(est, costmodel.ProfilerConfig{})
	d := &Driver{
		cfg:     cfg,
		prof:    prof,
		arrive:  make(chan *workload.Request, 256),
		faultc:  make(chan faultCmd, 16),
		resizec: make(chan resizeCmd, 16),
		snapc:   make(chan chan *control.Result),
		probec:  make(chan probeCmd),
		digestc: make(chan chan ShardDigest),
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
		plane:   telemetry.NewPlane(),
	}
	d.rec = lifecycle.NewRecorder(lifecycle.Config{
		Shard:       cfg.ShardName,
		Capacity:    cfg.LifecycleCapacity,
		OnFinalized: d.plane.ObserveTimeline,
	})
	d.view.capacity = cfg.Topo.AllMask()
	d.plane.SetClusterSize(cfg.Topo.N)
	d.plane.BindGPUBusy(func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.view.stats.GPUBusyS
	})
	return d, nil
}

// Telemetry exposes the live telemetry plane for the HTTP layer (/metrics,
// /v1/rounds, /v1/trace?follow=1) and tests.
func (d *Driver) Telemetry() *telemetry.Plane { return d.plane }

// Lifecycle exposes the span-timeline recorder (GET /v1/requests/{id}).
func (d *Driver) Lifecycle() *lifecycle.Recorder { return d.rec }

// Timeline returns a deep copy of a request's span timeline by trace ID or
// decimal job ID. Safe to call concurrently with the loop.
func (d *Driver) Timeline(key string) (*lifecycle.Timeline, bool) {
	return d.rec.Lookup(key)
}

// Profile exposes the offline-profiled cost table.
func (d *Driver) Profile() *costmodel.Profile { return d.prof }

// Start launches the serving loop goroutine. Start is idempotent; starting
// an already-stopped driver launches a loop that exits immediately.
func (d *Driver) Start() {
	if !d.started.CompareAndSwap(false, true) {
		return
	}
	d.clk = clock.NewReal(d.cfg.Speedup)
	go d.loop()
}

// Stop shuts the loop down and waits for it to exit. Stop is idempotent and
// safe to call before Start: the stop signal is latched once, and the wait
// only happens when a loop was actually launched.
func (d *Driver) Stop() {
	d.stopOnce.Do(func() { close(d.stop) })
	if d.started.Load() {
		<-d.stopped
	}
}

// FailGPUs injects a fail-stop fault for the masked GPUs: in-flight blocks
// touching them are aborted with partial-step credit and their jobs requeued
// onto the surviving devices at the next plan. Returns an error only if the
// driver is stopped.
func (d *Driver) FailGPUs(mask simgpu.Mask) error {
	return send(d, d.faultc, faultCmd{mask: mask})
}

// RecoverGPUs returns previously failed GPUs to service.
func (d *Driver) RecoverGPUs(mask simgpu.Mask) error {
	return send(d, d.faultc, faultCmd{mask: mask, recover: true})
}

// Resize stages an elastic capacity change: the loop's usable GPU set becomes
// exactly mask at its next round boundary (immediately for event-driven
// schedulers). Unlike FailGPUs, departing GPUs hand their work off — in-flight
// blocks are preempted with full step credit and requeued, never dropped as
// fault victims. Returns an error only if the driver is stopped.
func (d *Driver) Resize(mask simgpu.Mask) error {
	return send(d, d.resizec, resizeCmd{mask: mask})
}

// send hands cmd to the loop goroutine over ch; it fails only once the
// driver is stopped.
func send[T any](d *Driver, ch chan<- T, cmd T) error {
	// Check the latch first: after Stop, both select cases below are ready
	// (a buffered channel still accepts) and Go would pick one at random.
	if isClosed(d.stop) {
		return fmt.Errorf("server: driver stopped")
	}
	select {
	case ch <- cmd:
		return nil
	case <-d.stop:
		return fmt.Errorf("server: driver stopped")
	}
}

// ErrUnknownResolution marks submissions whose resolution the cost profile
// was never calibrated on (and on-demand profiling is off). The HTTP layer
// maps it to 400: the request itself is malformed for this deployment, not
// merely unservable right now.
var ErrUnknownResolution = errors.New("resolution not profiled")

// Submit enqueues a generation request and returns a snapshot of its job.
func (d *Driver) Submit(prompt workload.Prompt, res model.Resolution, slo time.Duration) (Job, error) {
	return d.SubmitTraced(prompt, res, slo, "", "")
}

// SubmitTraced is Submit with fleet-trace context: traceID is the
// router-minted lifecycle trace identifier ("" lets the recorder derive
// one from the job ID) and tenant the admission-fairness identity.
func (d *Driver) SubmitTraced(prompt workload.Prompt, res model.Resolution, slo time.Duration, traceID, tenant string) (Job, error) {
	if !res.Valid() {
		return Job{}, fmt.Errorf("server: invalid resolution %v", res)
	}
	// With AdmitAnyResolution the profile can grow, but only ever on the
	// loop goroutine (see the arrival path); in that mode Submit must not
	// read it.
	if !d.cfg.AdmitAnyResolution && !d.prof.Has(res) {
		return Job{}, fmt.Errorf("server: %w: %v; supported: %v", ErrUnknownResolution, res, d.prof.Resolutions())
	}
	if slo <= 0 {
		// The default deadline interpolates the SLO policy in token count,
		// clamped to the calibrated anchor range — a resolution outside the
		// policy's range inherits the nearest contract rather than an
		// extrapolated (potentially absurd) one.
		slo = workload.NewSLOPolicy(1.0).InterpolatedBudget(res)
	}
	if isClosed(d.stop) {
		return Job{}, fmt.Errorf("server: driver stopped")
	}
	d.mu.Lock()
	id := d.nextID
	d.nextID++
	d.accepted++
	d.mu.Unlock()
	if traceID == "" {
		// Shard-local derivation, matching the lifecycle recorder's fallback,
		// so every job carries a queryable trace id.
		traceID = fmt.Sprintf("req-%d", id)
	}
	req := &workload.Request{
		ID:      id,
		Prompt:  prompt,
		Res:     res,
		Steps:   d.cfg.Model.DefaultSteps,
		SLO:     slo,
		TraceID: traceID,
		Tenant:  tenant,
	}
	if f := d.cfg.QualityBudgetFrac; f > 0 {
		req.QualityBudget = int(f * float64(req.Steps))
	}
	if err := send(d, d.arrive, req); err != nil {
		// The loop never saw this job: take it back out of the accepted count.
		d.mu.Lock()
		d.accepted--
		d.mu.Unlock()
		return Job{}, err
	}
	return Job{ID: id, Width: res.W, Height: res.H, Steps: req.Steps, State: JobQueued,
		SLO: slo, TraceID: traceID, Tenant: tenant}, nil
}

// JobStatus returns a snapshot of a job: its lifecycle timeline rendered as
// a Job, or a Job with only ID and State (queued) set while the job is on its
// way to the running loop. It reports false for an ID the driver never
// issued, for one whose job never reached the loop before it stopped (a
// Submit that failed included), and for one whose timeline the recorder has
// evicted (see LifecycleCapacity).
func (d *Driver) JobStatus(id workload.RequestID) (Job, bool) {
	j, w := d.jobStatus(id)
	return j, w == jobTimeline || w == jobInTransit
}

// jobWhere says where a job ID stands.
type jobWhere uint8

const (
	jobUnissued jobWhere = iota
	jobEvicted
	jobInTransit
	jobTimeline
)

func (d *Driver) jobStatus(id workload.RequestID) (Job, jobWhere) {
	d.mu.Lock()
	issued := 0 <= id && id < d.nextID
	d.mu.Unlock()
	if !issued {
		return Job{}, jobUnissued
	}
	// Read in this order. A loop that is over admits no job after the
	// reads below. The loop admits a job, which gives it a timeline, before
	// it marks the job reached, so a reached job the lookup misses was
	// evicted.
	over := isClosed(d.stopped) || (isClosed(d.stop) && !d.started.Load())
	reached := d.digests.reached(id)
	if tl, ok := d.rec.LookupID(id); ok {
		return d.jobView(tl), jobTimeline
	}
	switch {
	case reached:
		return Job{}, jobEvicted
	case over:
		// The job never had a timeline and never will; a Submit that failed
		// handed its ID to no job at all.
		return Job{}, jobUnissued
	}
	return Job{ID: id, State: JobQueued}, jobInTransit
}

// isClosed reports whether ch is closed.
func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// jobView renders a timeline as a Job.
func (d *Driver) jobView(tl *lifecycle.Timeline) Job {
	us := func(v int64) time.Duration { return time.Duration(v) * time.Microsecond }
	j := Job{
		ID:        workload.RequestID(tl.ID),
		Steps:     d.cfg.Model.DefaultSteps,
		Skipped:   tl.SkippedSteps,
		State:     JobQueued,
		SLO:       us(tl.SLOUS),
		Arrival:   us(tl.ArrivalUS),
		MetSLO:    tl.Met,
		AvgDegree: tl.AvgDegree,
		TraceID:   tl.TraceID,
		Tenant:    tl.Tenant,
	}
	j.Width, j.Height = tl.Res.W, tl.Res.H
	switch {
	case tl.Dropped:
		j.State = JobDropped
	case tl.Done:
		j.State = JobCompleted
		j.Completed = us(tl.CompletedUS)
		j.Latency = j.Completed - j.Arrival
	case tl.Running:
		j.State = JobRunning
	}
	return j
}

// Result returns a point-in-time snapshot of the control loop's result —
// outcomes, the run log, plan counts, health counters — the same structure
// the simulator returns, so trace export and Gantt rendering work
// identically against live traffic. The loop goroutine takes the snapshot
// with three bulk copies (outcomes, run records, the run log's member IDs),
// whatever the log's length. Safe to call concurrently; after Stop it
// returns the loop's final state.
func (d *Driver) Result() *control.Result {
	if !d.started.Load() {
		return &control.Result{SchedulerName: d.cfg.Scheduler.Name(), NGPU: d.cfg.Topo.N}
	}
	reply := make(chan *control.Result, 1)
	select {
	case d.snapc <- reply:
		return <-reply
	case <-d.stopped:
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.final
	}
}

// Probe projects deadline feasibility for a hypothetical request against
// the live loop's current backlog — control.Loop.ProbeFeasibility, funneled
// onto the loop goroutine that owns all loop state. The probe mutates
// nothing: submitting after a probe behaves exactly as if the probe never
// happened. Safe to call concurrently; fails once the driver is stopped or
// before it is started.
func (d *Driver) Probe(res model.Resolution, steps int, slo time.Duration) (control.Feasibility, error) {
	if !d.started.Load() {
		return control.Feasibility{}, fmt.Errorf("server: driver not started")
	}
	cmd := probeCmd{res: res, steps: steps, slo: slo, reply: make(chan probeReply, 1)}
	select {
	case d.probec <- cmd:
		r := <-cmd.reply
		return r.feas, r.err
	case <-d.stopped:
		return control.Feasibility{}, fmt.Errorf("server: driver stopped")
	}
}

// InvariantViolations returns the scheduling-invariant violations the
// attached oracle has recorded so far (nil when CheckInvariants is off or
// the loop has been clean). Safe to call concurrently with the loop.
func (d *Driver) InvariantViolations() []invariant.Violation {
	d.mu.Lock()
	o := d.oracle
	d.mu.Unlock()
	if o == nil {
		return nil
	}
	return o.Violations()
}

// Stats summarizes served traffic and serving-loop health.
type Stats struct {
	Completed int     `json:"completed"`
	MetSLO    int     `json:"met_slo"`
	SAR       float64 `json:"sar"`
	Queued    int     `json:"queued"`
	Running   int     `json:"running"`
	Dropped   int     `json:"dropped"`
	GPUBusyS  float64 `json:"gpu_busy_seconds"`
	// Error counters: plans the validator rejected, assignments the engine
	// refused to start, and blocks aborted by GPU faults.
	PlanRejected int `json:"plan_rejected"`
	StartFailed  int `json:"start_failed"`
	RunsAborted  int `json:"runs_aborted"`
	// RoundTicks counts fired round boundaries (0 for event-driven
	// schedulers). An idle loop parks and fires none; the τ grid stays
	// anchored even under late wake-ups.
	RoundTicks int `json:"round_ticks"`
	// RunsPreempted counts blocks preempted (with full credit) by elastic
	// capacity changes; Resizes counts applied capacity changes.
	RunsPreempted int `json:"runs_preempted,omitempty"`
	Resizes       int `json:"resizes,omitempty"`
	// FailedGPUs lists devices currently out of service.
	FailedGPUs []int `json:"failed_gpus,omitempty"`
	// CapacityGPUs lists the devices this loop currently owns (the elastic
	// capacity mask; the full topology unless resized).
	CapacityGPUs []int `json:"capacity_gpus,omitempty"`
}

// Snapshot returns aggregate serving statistics. Queued counts every
// accepted job that is neither terminal nor running, so a job still on its
// way to the loop counts as queued.
func (d *Driver) Snapshot() Stats {
	d.mu.Lock()
	v, accepted := d.view, d.accepted
	d.mu.Unlock()
	st := v.stats
	st.Queued = accepted - st.Completed - st.Dropped - st.Running
	for _, g := range v.failed.IDs() {
		st.FailedGPUs = append(st.FailedGPUs, int(g))
	}
	for _, g := range v.capacity.IDs() {
		st.CapacityGPUs = append(st.CapacityGPUs, int(g))
	}
	if st.Completed > 0 {
		st.SAR = float64(st.MetSLO) / float64(st.Completed)
	}
	return st
}

// loop is the real-time adapter around control.Loop: sleep until the loop's
// next event is due on the (speedup-scaled) wall clock, dispatch everything
// whose time has come, and inject channel-fed arrivals and fault commands
// as they happen. The loop goroutine owns ctl exclusively.
func (d *Driver) loop() {
	var ctl *control.Loop
	// syncTelemetry publishes the loop's counts and engine telemetry for
	// Snapshot. Runs on the loop goroutine after every batch of work, and
	// as each job finalizes, ahead of the recorder: a job never reads as
	// terminal before /v1/stats counts it.
	syncTelemetry := func() {
		res, eng := ctl.Result(), ctl.Engine()
		v := loopView{
			stats: Stats{
				Completed:     res.Completed,
				MetSLO:        res.Met,
				Running:       ctl.Running(),
				Dropped:       res.Dropped,
				GPUBusyS:      eng.GPUBusySeconds(),
				PlanRejected:  res.PlanRejected,
				StartFailed:   res.StartFailed,
				RunsAborted:   eng.RunsAborted(),
				RoundTicks:    res.RoundTicks,
				RunsPreempted: eng.RunsPreempted(),
				Resizes:       eng.Resizes(),
			},
			failed:   eng.FailedGPUs(),
			capacity: eng.Capacity(),
		}
		d.mu.Lock()
		d.view = v
		d.mu.Unlock()
	}
	finalized := func(time.Duration, control.Outcome) { syncTelemetry() }

	ctlCfg := control.Config{
		Model:          d.cfg.Model,
		Topo:           d.cfg.Topo,
		Scheduler:      d.cfg.Scheduler,
		Profile:        d.prof,
		Engine:         engine.DefaultConfig(),
		DropLateFactor: d.cfg.DropLateFactor,
		// A live serving loop never panics on scheduler bugs (Strict off):
		// it counts them and retries at the next event.
		Hooks: control.Hooks{Finished: finalized, Dropped: finalized}.
			Then(d.plane.Hooks()).Then(d.rec.Hooks()),
	}
	if d.cfg.Cache != nil {
		ctlCfg.Trimmer = &cache.Trimmer{C: d.cfg.Cache}
	}
	if d.cfg.CheckInvariants {
		o := invariant.Attach(&ctlCfg)
		d.mu.Lock()
		d.oracle = o
		d.mu.Unlock()
	}
	var err error
	ctl, err = control.New(ctlCfg, d.clk)
	if err != nil {
		// NewDriver validated the same invariants; this is unreachable
		// without a programming error.
		panic(fmt.Sprintf("server: control loop rejected validated config: %v", err))
	}
	defer func() {
		d.mu.Lock()
		d.final = ctl.SnapshotResult()
		d.mu.Unlock()
		d.digests.closeAll()
		close(d.stopped)
	}()

	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		var wake <-chan time.Time
		if next := ctl.NextEvent(); next != nil {
			wall := time.Duration(float64(next.At-d.clk.Now()) / d.cfg.Speedup)
			if wall < 0 {
				wall = 0
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(wall)
			wake = timer.C
		}

		select {
		case <-d.stop:
			return
		case req := <-d.arrive:
			// On-demand profiling for non-standard resolutions happens here,
			// on the loop goroutine that owns all profile reads, so the
			// scheduler never observes an unprofiled request.
			if d.cfg.AdmitAnyResolution && !d.prof.Has(req.Res) {
				d.prof.Extend(costmodel.NewEstimator(d.cfg.Model, d.cfg.Topo), req.Res)
			}
			ctl.Arrive(req)
			d.digests.arrive(req.ID)
		case cmd := <-d.faultc:
			if cmd.recover {
				ctl.Recover(cmd.mask)
			} else {
				ctl.Fail(cmd.mask)
			}
		case cmd := <-d.resizec:
			ctl.ApplyResize(cmd.mask)
		case reply := <-d.snapc:
			reply <- ctl.SnapshotResult()
		case cmd := <-d.probec:
			feas, err := ctl.ProbeFeasibility(cmd.res, cmd.steps, cmd.slo)
			cmd.reply <- probeReply{feas: feas, err: err}
		case box := <-d.digestc:
			d.digests.publish(ctl, d.cfg.Speedup, box)
		case <-wake:
			for {
				next := ctl.NextEvent()
				if next == nil || next.At > d.clk.Now() {
					break
				}
				// Dispatch's only error source is the engine refusing a
				// completion it no longer tracks; the serving loop skips the
				// stale event and keeps going.
				_ = ctl.Dispatch(ctl.PopEvent())
			}
		}
		syncTelemetry()
		d.digests.publish(ctl, d.cfg.Speedup, nil)
	}
}
