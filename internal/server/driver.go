// Package server is the online serving frontend: an HTTP API backed by a
// real-time driver that runs the exact same control plane as the offline
// simulator — internal/control's Loop, with all of its plan → dispatch,
// round-tick, fault-requeue, and drop/timeout logic — but against the wall
// clock (optionally time-scaled so hardware-scale latencies replay quickly
// in demos).
//
// The driver is a thin adapter: one goroutine owns the loop, receives
// arrivals and fault commands over channels, sleeps on the real clock until
// the loop's next event, and dispatches everything whose time has come.
// Job records are the only state it adds; they mirror the loop's lifecycle
// hooks under a mutex for the HTTP handlers, and the loop's shared Result
// gives the driver trace JSONL export and Gantt-compatible run records for
// free.
package server

import (
	"errors"
	"fmt"
	"sync"
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

// Job lifecycle states.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobCompleted JobState = "completed"
	// JobDropped marks a job expired by the timeout policy: it exceeded
	// DropLateFactor × SLO without completing and was abandoned.
	JobDropped JobState = "dropped"
)

// Job is the externally visible record of one generation request.
type Job struct {
	ID        workload.RequestID `json:"id"`
	Prompt    string             `json:"prompt"`
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

	// prompt keeps the structured form for the cache; not serialized.
	prompt workload.Prompt
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

	arrive  chan *Job
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

	mu      sync.Mutex
	started bool
	jobs    map[workload.RequestID]*Job
	nextID  workload.RequestID
	// final is the loop's last result snapshot, published at shutdown so
	// Result keeps working after Stop.
	final     *control.Result
	completed int
	met       int
	queued    int
	running   int
	dropped   int
	// Health counters mirrored from the control loop's Result under mu so
	// Snapshot never races the loop goroutine that owns it.
	planRejected  int
	startFailed   int
	runsAborted   int
	roundTicks    int
	runsPreempted int
	resizes       int
	// gpuBusy, failed and capacity mirror engine telemetry the same way.
	gpuBusy  float64
	failed   simgpu.Mask
	capacity simgpu.Mask
	// oracle is set by the loop goroutine before the control loop starts
	// (guarded by mu for the cross-goroutine read in InvariantViolations).
	oracle *invariant.Oracle

	// plane is the live telemetry plane (metrics registry, round explainer,
	// trace bus), fed by the same hook stream as the job mirror. Its GPU-busy
	// counter is bound to the mutex mirror above, so /metrics and /v1/stats
	// agree exactly.
	plane *telemetry.Plane
	// rec assembles per-request span timelines from the same hook stream;
	// finalized timelines feed the plane's phase histograms and attainment
	// gauges via ObserveTimeline.
	rec *lifecycle.Recorder
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
		arrive:  make(chan *Job, 256),
		faultc:  make(chan faultCmd, 16),
		resizec: make(chan resizeCmd, 16),
		snapc:   make(chan chan *control.Result),
		probec:  make(chan probeCmd),
		digestc: make(chan chan ShardDigest),
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
		jobs:    make(map[workload.RequestID]*Job),
		plane:   telemetry.NewPlane(),
	}
	d.rec = lifecycle.NewRecorder(lifecycle.Config{
		Shard:       cfg.ShardName,
		Capacity:    cfg.LifecycleCapacity,
		OnFinalized: d.plane.ObserveTimeline,
	})
	d.capacity = cfg.Topo.AllMask()
	d.plane.SetClusterSize(cfg.Topo.N)
	d.plane.BindGPUBusy(func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.gpuBusy
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
	d.mu.Lock()
	if d.started {
		d.mu.Unlock()
		return
	}
	d.started = true
	d.mu.Unlock()
	d.clk = clock.NewReal(d.cfg.Speedup)
	go d.loop()
}

// Stop shuts the loop down and waits for it to exit. Stop is idempotent and
// safe to call before Start: the stop signal is latched once, and the wait
// only happens when a loop was actually launched.
func (d *Driver) Stop() {
	d.stopOnce.Do(func() { close(d.stop) })
	d.mu.Lock()
	started := d.started
	d.mu.Unlock()
	if started {
		<-d.stopped
	}
}

// FailGPUs injects a fail-stop fault for the masked GPUs: in-flight blocks
// touching them are aborted with partial-step credit and their jobs requeued
// onto the surviving devices at the next plan. Returns an error only if the
// driver is stopped.
func (d *Driver) FailGPUs(mask simgpu.Mask) error {
	return d.sendFault(faultCmd{mask: mask})
}

// RecoverGPUs returns previously failed GPUs to service.
func (d *Driver) RecoverGPUs(mask simgpu.Mask) error {
	return d.sendFault(faultCmd{mask: mask, recover: true})
}

// Resize stages an elastic capacity change: the loop's usable GPU set becomes
// exactly mask at its next round boundary (immediately for event-driven
// schedulers). Unlike FailGPUs, departing GPUs hand their work off — in-flight
// blocks are preempted with full step credit and requeued, never dropped as
// fault victims. Returns an error only if the driver is stopped.
func (d *Driver) Resize(mask simgpu.Mask) error {
	select {
	case <-d.stop:
		return fmt.Errorf("server: driver stopped")
	default:
	}
	select {
	case d.resizec <- resizeCmd{mask: mask}:
		return nil
	case <-d.stop:
		return fmt.Errorf("server: driver stopped")
	}
}

func (d *Driver) sendFault(cmd faultCmd) error {
	// Check the latch first: after Stop, both select cases below are ready
	// (the buffered channel still accepts) and Go would pick one at random.
	select {
	case <-d.stop:
		return fmt.Errorf("server: driver stopped")
	default:
	}
	select {
	case d.faultc <- cmd:
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
	select {
	case <-d.stop:
		return Job{}, fmt.Errorf("server: driver stopped")
	default:
	}
	d.mu.Lock()
	id := d.nextID
	d.nextID++
	if traceID == "" {
		// Shard-local derivation, matching the lifecycle recorder's fallback,
		// so every job carries a queryable trace id.
		traceID = fmt.Sprintf("req-%d", id)
	}
	job := &Job{
		ID:      id,
		Prompt:  prompt.Text,
		Width:   res.W,
		Height:  res.H,
		Steps:   d.cfg.Model.DefaultSteps,
		State:   JobQueued,
		SLO:     slo,
		TraceID: traceID,
		Tenant:  tenant,
		prompt:  prompt,
	}
	d.jobs[id] = job
	d.queued++
	snap := *job
	d.mu.Unlock()

	select {
	case d.arrive <- job:
		return snap, nil
	case <-d.stop:
		// The loop never saw this job; roll back the optimistic insertion
		// so Snapshot counters stay truthful.
		d.mu.Lock()
		delete(d.jobs, id)
		d.queued--
		d.mu.Unlock()
		return Job{}, fmt.Errorf("server: driver stopped")
	}
}

// JobStatus returns a snapshot of a job.
func (d *Driver) JobStatus(id workload.RequestID) (Job, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// Result returns a point-in-time snapshot of the control loop's result —
// outcomes, run records, plan latencies, health counters — the same
// structure the simulator returns, so trace export and Gantt rendering work
// identically against live traffic. Safe to call concurrently; after Stop
// it returns the loop's final state.
func (d *Driver) Result() *control.Result {
	d.mu.Lock()
	if !d.started {
		d.mu.Unlock()
		return &control.Result{SchedulerName: d.cfg.Scheduler.Name(), NGPU: d.cfg.Topo.N}
	}
	d.mu.Unlock()
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
	d.mu.Lock()
	started := d.started
	d.mu.Unlock()
	if !started {
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

// Snapshot returns aggregate serving statistics.
func (d *Driver) Snapshot() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := Stats{
		Completed:     d.completed,
		MetSLO:        d.met,
		Queued:        d.queued,
		Running:       d.running,
		Dropped:       d.dropped,
		GPUBusyS:      d.gpuBusy,
		PlanRejected:  d.planRejected,
		StartFailed:   d.startFailed,
		RunsAborted:   d.runsAborted,
		RoundTicks:    d.roundTicks,
		RunsPreempted: d.runsPreempted,
		Resizes:       d.resizes,
	}
	for _, g := range d.failed.IDs() {
		st.FailedGPUs = append(st.FailedGPUs, int(g))
	}
	for _, g := range d.capacity.IDs() {
		st.CapacityGPUs = append(st.CapacityGPUs, int(g))
	}
	if d.completed > 0 {
		st.SAR = float64(d.met) / float64(d.completed)
	}
	return st
}

// cacheTrimmer adapts the approximate latent cache to the control loop's
// StepTrimmer hook.
type cacheTrimmer struct{ c *cache.Cache }

func (t cacheTrimmer) OnArrival(p workload.Prompt, res model.Resolution, steps int, now time.Duration) int {
	return t.c.Lookup(p, res, steps)
}

func (t cacheTrimmer) OnComplete(p workload.Prompt, res model.Resolution, now time.Duration) {
	t.c.Insert(p, res)
}

// hooks builds the lifecycle callbacks that mirror control-loop transitions
// into the HTTP-visible job records. All hooks run on the loop goroutine;
// the mutex only guards against concurrent HTTP reads.
func (d *Driver) hooks() control.Hooks {
	return control.Hooks{
		Admitted: func(now time.Duration, r *workload.Request) {
			d.mu.Lock()
			if j, ok := d.jobs[r.ID]; ok {
				j.Arrival = now
				j.Skipped = r.SkippedSteps
			}
			d.mu.Unlock()
		},
		Started: func(now time.Duration, id workload.RequestID) {
			d.mu.Lock()
			if j, ok := d.jobs[id]; ok && j.State == JobQueued {
				j.State = JobRunning
				d.queued--
				d.running++
			}
			d.mu.Unlock()
		},
		Requeued: func(now time.Duration, id workload.RequestID, _ control.RequeueCause) {
			// Fault/resize interruptions only: the survivor goes back to the
			// queue until the next plan re-packs it. Ordinary end-of-block
			// requeues keep the job "running" from the client's perspective —
			// its block is merely between rounds.
			d.mu.Lock()
			if j, ok := d.jobs[id]; ok && j.State == JobRunning {
				j.State = JobQueued
				d.running--
				d.queued++
			}
			d.mu.Unlock()
		},
		Finished: func(now time.Duration, o control.Outcome) {
			d.mu.Lock()
			if j, ok := d.jobs[o.ID]; ok {
				d.retireLocked(j)
				j.State = JobCompleted
				j.Completed = o.Completion
				j.Latency = o.Latency
				j.MetSLO = o.Met
				j.AvgDegree = o.AvgDegree
				d.completed++
				if o.Met {
					d.met++
				}
			}
			d.mu.Unlock()
		},
		Dropped: func(now time.Duration, o control.Outcome) {
			d.mu.Lock()
			if j, ok := d.jobs[o.ID]; ok {
				d.retireLocked(j)
				j.State = JobDropped
				d.dropped++
			}
			d.mu.Unlock()
		},
	}
}

// retireLocked decrements the queue-position counter a job currently
// occupies. Callers hold mu and set the terminal state afterwards.
func (d *Driver) retireLocked(j *Job) {
	switch j.State {
	case JobQueued:
		d.queued--
	case JobRunning:
		d.running--
	}
}

// loop is the real-time adapter around control.Loop: sleep until the loop's
// next event is due on the (speedup-scaled) wall clock, dispatch everything
// whose time has come, and inject channel-fed arrivals and fault commands
// as they happen. The loop goroutine owns ctl exclusively.
func (d *Driver) loop() {
	ctlCfg := control.Config{
		Model:          d.cfg.Model,
		Topo:           d.cfg.Topo,
		Scheduler:      d.cfg.Scheduler,
		Profile:        d.prof,
		Engine:         engine.DefaultConfig(),
		DropLateFactor: d.cfg.DropLateFactor,
		// A live serving loop never panics on scheduler bugs (Strict off):
		// it counts them and retries at the next event.
		Hooks: d.hooks().Then(d.plane.Hooks()).Then(d.rec.Hooks()),
	}
	if d.cfg.Cache != nil {
		ctlCfg.Trimmer = cacheTrimmer{c: d.cfg.Cache}
	}
	if d.cfg.CheckInvariants {
		o := invariant.Attach(&ctlCfg)
		d.mu.Lock()
		d.oracle = o
		d.mu.Unlock()
	}
	ctl, err := control.New(ctlCfg, d.clk)
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

	// syncTelemetry mirrors loop + engine counters into the mutex-guarded
	// fields Snapshot reads. Runs on the loop goroutine after every batch
	// of work.
	syncTelemetry := func() {
		res := ctl.Result()
		eng := ctl.Engine()
		busy := eng.GPUBusySeconds()
		failed := eng.FailedGPUs()
		aborted := eng.RunsAborted()
		preempted := eng.RunsPreempted()
		resizes := eng.Resizes()
		capacity := eng.Capacity()
		d.mu.Lock()
		d.planRejected = res.PlanRejected
		d.startFailed = res.StartFailed
		d.roundTicks = res.RoundTicks
		d.runsAborted = aborted
		d.runsPreempted = preempted
		d.resizes = resizes
		d.gpuBusy = busy
		d.failed = failed
		d.capacity = capacity
		d.mu.Unlock()
	}

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
		case job := <-d.arrive:
			// On-demand profiling for non-standard resolutions happens here,
			// on the loop goroutine that owns all profile reads, so the
			// scheduler never observes an unprofiled request.
			res := model.Resolution{W: job.Width, H: job.Height}
			if d.cfg.AdmitAnyResolution && !d.prof.Has(res) {
				d.prof.Extend(costmodel.NewEstimator(d.cfg.Model, d.cfg.Topo), res)
			}
			req := &workload.Request{
				ID:      job.ID,
				Prompt:  job.prompt,
				Res:     res,
				Steps:   job.Steps,
				SLO:     job.SLO,
				TraceID: job.TraceID,
				Tenant:  job.Tenant,
			}
			if f := d.cfg.QualityBudgetFrac; f > 0 {
				req.QualityBudget = int(f * float64(job.Steps))
			}
			ctl.Arrive(req)
			d.digests.arrive(job.ID)
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
