// Package sim is the discrete-event serving simulator: it replays a request
// trace against a scheduler and the execution engine on a virtual clock,
// producing per-request outcomes and run logs from which every evaluation
// metric (SAR, latency CDFs, degree timelines, utilization) derives.
//
// The scheduling loop itself — admission, τ round ticks, plan → dispatch,
// fault requeue, drop expiry, finish accounting — lives in internal/control
// and is shared verbatim with the online driver (internal/server). This
// package is only the discrete-event harness around it: it pre-schedules the
// trace and fault script on the loop's event queue, then advances a virtual
// clock to each event and dispatches it until every request is finalized.
//
// Round-based schedulers (TetriServe) are invoked at fixed τ boundaries;
// event-driven schedulers (xDiT, RSSP, EDF) are invoked on every arrival and
// completion. Both paths share the engine, so all policies pay identical
// execution physics.
package sim

import (
	"fmt"
	"time"

	"tetriserve/internal/clock"
	"tetriserve/internal/control"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/engine"
	"tetriserve/internal/invariant"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

// StepTrimmer is the cache-acceleration hook; see control.StepTrimmer.
type StepTrimmer = control.StepTrimmer

// Outcome is the fate of one request; see control.Outcome.
type Outcome = control.Outcome

// RunRecord logs one executed block; see control.RunRecord.
type RunRecord = control.RunRecord

// Result aggregates a run; see control.Result.
type Result = control.Result

// Config describes one simulation run.
type Config struct {
	Model     *model.Model
	Topo      *simgpu.Topology
	Scheduler sched.Scheduler
	Requests  []*workload.Request
	// Profile defaults to BuildProfile over the trace's resolutions.
	Profile *costmodel.Profile
	// Trimmer optionally shortens requests via caching.
	Trimmer StepTrimmer
	// DropLateFactor > 0 drops a request once now exceeds
	// arrival + SLO×factor without completion (the paper's timeout
	// semantics for the Figure 9 CDF). 0 disables dropping.
	DropLateFactor float64
	// Faults schedules fail-stop GPU failures (and optional recoveries)
	// injected during the run. In-flight blocks touching a failed GPU are
	// aborted with partial-step credit and their survivors requeued for the
	// next plan on the remaining devices.
	Faults []simgpu.Fault
	// NoRequeueOnFault drops a fault's surviving victims instead of
	// requeueing them — the recovery ablation the failure sweep compares
	// against.
	NoRequeueOnFault bool
	// Resizes schedules planned capacity changes (elastic shard grow or
	// shrink). Each takes effect at the loop's next round boundary after its
	// At: in-flight blocks on departing GPUs are preempted with full step
	// credit and requeued (latent handoff), never dropped as fault victims.
	Resizes []simgpu.Resize
	// Hooks are optional observer callbacks (telemetry planes, custom
	// probes) composed onto the control loop before the invariant oracle.
	Hooks control.Hooks
	// CheckInvariants attaches the internal/invariant oracle to the run:
	// every plan and execution transition is audited against the paper's
	// scheduling invariants, panicking on the first violation (the simulator
	// always runs the control loop in Strict mode) and failing the run if
	// the end-of-run audit finds bookkeeping drift.
	CheckInvariants bool
	// MaxVirtualTime aborts runaway simulations (default 4 h virtual).
	MaxVirtualTime time.Duration
}

type simulator struct {
	cfg    Config
	clk    *clock.Virtual
	ctl    *control.Loop
	oracle *invariant.Oracle
}

// Run executes the simulation to completion and returns the result.
func Run(cfg Config) (*Result, error) {
	s, err := newSimulator(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.loop(); err != nil {
		return nil, err
	}
	res := s.ctl.Finalize()
	if s.oracle != nil {
		if err := s.oracle.VerifyResult(res); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	return res, nil
}

// newSimulator validates the configuration and builds a ready-to-run
// simulator (separated from Run so tests can inspect internal state after
// the loop drains).
func newSimulator(cfg Config) (*simulator, error) {
	if cfg.Model == nil || cfg.Topo == nil || cfg.Scheduler == nil {
		return nil, fmt.Errorf("sim: Model, Topo and Scheduler are required")
	}
	if len(cfg.Requests) == 0 {
		return nil, fmt.Errorf("sim: empty request trace")
	}
	if cfg.Profile == nil {
		cfg.Profile = costmodel.BuildProfile(
			costmodel.NewEstimator(cfg.Model, cfg.Topo), costmodel.ProfilerConfig{})
	}
	if cfg.MaxVirtualTime <= 0 {
		cfg.MaxVirtualTime = 4 * time.Hour
	}

	for _, f := range cfg.Faults {
		if err := f.Validate(cfg.Topo); err != nil {
			return nil, err
		}
	}
	for _, r := range cfg.Resizes {
		if err := r.Validate(cfg.Topo); err != nil {
			return nil, err
		}
	}

	clk := clock.NewVirtual()
	ctlCfg := control.Config{
		Model:            cfg.Model,
		Topo:             cfg.Topo,
		Scheduler:        cfg.Scheduler,
		Profile:          cfg.Profile,
		Engine:           engine.DefaultConfig(),
		Trimmer:          cfg.Trimmer,
		DropLateFactor:   cfg.DropLateFactor,
		NoRequeueOnFault: cfg.NoRequeueOnFault,
		// The simulator is the oracle harness: a scheduler bug must abort
		// the run (panic), not leak into experiment tables.
		Strict: true,
		Hooks:  cfg.Hooks,
	}
	var oracle *invariant.Oracle
	if cfg.CheckInvariants {
		oracle = invariant.Attach(&ctlCfg)
	}
	ctl, err := control.New(ctlCfg, clk)
	if err != nil {
		return nil, err
	}
	for _, r := range cfg.Requests {
		ctl.ScheduleArrival(r)
	}
	for _, f := range cfg.Faults {
		ctl.ScheduleFault(f)
	}
	for _, r := range cfg.Resizes {
		ctl.ScheduleResize(r)
	}
	return &simulator{cfg: cfg, clk: clk, ctl: ctl, oracle: oracle}, nil
}

// loop drains the event queue under the virtual clock: advance to the next
// event's timestamp, dispatch it, repeat until every request is finalized.
func (s *simulator) loop() error {
	for s.ctl.Unfinished() > 0 {
		ev := s.ctl.PopEvent()
		if ev == nil {
			return fmt.Errorf("sim: %d requests unfinished but no pending events (deadlock)", s.ctl.Unfinished())
		}
		if ev.At > s.cfg.MaxVirtualTime {
			return fmt.Errorf("sim: exceeded max virtual time %s with %d requests left", s.cfg.MaxVirtualTime, s.ctl.Unfinished())
		}
		s.clk.Advance(ev.At)
		if err := s.ctl.Dispatch(ev); err != nil {
			return err
		}
	}
	return nil
}
