package invariant

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/engine"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

// Config describes the world the oracle audits. It deliberately mirrors the
// subset of control.Config the checks need; Attach derives it automatically.
type Config struct {
	Model   *model.Model
	Topo    *simgpu.Topology
	Profile *costmodel.Profile
	// Engine supplies the jitter amplitude for the cost-model envelope.
	Engine engine.Config
	// Tau is the scheduler's round duration (0 for event-driven policies;
	// disables the round-boundary survival test).
	Tau time.Duration
	// Strict panics on the first violation (the simulator's behavior: a
	// broken invariant must abort the run, not skew the tables). Off, the
	// oracle records violations for later inspection (the serving driver).
	Strict bool
}

// reqState is the oracle's independent ledger entry for one live request.
type reqState struct {
	res       model.Resolution
	arrival   time.Duration
	deadline  time.Duration
	remaining int
	running   bool
	// qualityUsed/qualityBudget is the oracle's double-entry of the step-cache
	// quality ledger: approximated steps credited with the same ApproxSteps
	// convention the control loop uses, checked against the request's budget
	// at every credit and against Outcome.Approximated at retirement.
	qualityUsed   int
	qualityBudget int
}

// Oracle audits a control.Loop through its lifecycle hooks. All transition
// methods run on the loop's goroutine; only Violations may be called from
// other goroutines.
type Oracle struct {
	cfg   Config
	est   *costmodel.Estimator
	noise float64

	// capacity is the oracle's independent ledger of the GPU set the shard
	// owns; Resized transitions mutate it. busy/failed are tracked within it.
	capacity simgpu.Mask
	busy     simgpu.Mask
	failed   simgpu.Mask
	reqs     map[workload.RequestID]*reqState
	// latents mirrors the engine's latent ledger: where each request's
	// latent last materialized. Presence of an entry (even an empty mask
	// after a fault) means the next placement is a reconfiguration.
	latents  map[workload.RequestID]simgpu.Mask
	inflight map[engine.RunID]*engine.Run

	admitted   int
	finalized  int
	migrations int
	plans      int
	preempted  int
	resizes    int

	mu         sync.Mutex
	violations []Violation
}

// New builds an oracle over the given world.
func New(cfg Config) *Oracle {
	noise := cfg.Engine.Noise
	if noise == 0 && cfg.Profile != nil {
		noise = cfg.Profile.Noise
	}
	capacity := cfg.Engine.Capacity & cfg.Topo.AllMask()
	if capacity == 0 {
		capacity = cfg.Topo.AllMask()
	}
	return &Oracle{
		cfg:      cfg,
		est:      costmodel.NewEstimator(cfg.Model, cfg.Topo),
		noise:    noise,
		capacity: capacity,
		reqs:     make(map[workload.RequestID]*reqState),
		latents:  make(map[workload.RequestID]simgpu.Mask),
		inflight: make(map[engine.RunID]*engine.Run),
	}
}

// Attach builds an oracle for the control configuration and chains its
// observers after any hooks already installed. Call before control.New.
func Attach(cfg *control.Config) *Oracle {
	o := New(Config{
		Model:   cfg.Model,
		Topo:    cfg.Topo,
		Profile: cfg.Profile,
		Engine:  cfg.Engine,
		Tau:     cfg.Scheduler.RoundDuration(),
		Strict:  cfg.Strict,
	})
	cfg.Hooks = cfg.Hooks.Then(o.Hooks())
	return o
}

// Hooks returns the oracle's observer callbacks for control.Config.
func (o *Oracle) Hooks() control.Hooks {
	return control.Hooks{
		Admitted:     o.onAdmitted,
		PlanComputed: o.onPlanComputed,
		Planned:      o.onPlanned,
		RunStarted:   o.onRunStarted,
		RunFinished:  o.onRunFinished,
		RunAborted:   o.onRunAborted,
		RunPreempted: o.onRunPreempted,
		Resized:      o.onResized,
		GPUFailed:    o.onGPUFailed,
		GPURecovered: o.onGPURecovered,
		Finished:     o.onFinished,
		Dropped:      o.onDropped,
	}
}

// Violations returns a copy of the recorded violations (empty when the run
// respected every invariant). Safe to call from any goroutine.
func (o *Oracle) Violations() []Violation {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]Violation(nil), o.violations...)
}

// Migrations returns how many explicit placement migrations the oracle has
// observed (for comparison against the engine's remap counter).
func (o *Oracle) Migrations() int { return o.migrations }

// Plans returns how many validated plans the oracle has audited.
func (o *Oracle) Plans() int { return o.plans }

func (o *Oracle) report(at time.Duration, rule, format string, args ...any) {
	v := Violation{At: at, Rule: rule, Detail: fmt.Sprintf(format, args...)}
	o.mu.Lock()
	o.violations = append(o.violations, v)
	o.mu.Unlock()
	if o.cfg.Strict {
		panic("invariant: " + v.Error())
	}
}

func (o *Oracle) onAdmitted(now time.Duration, r *workload.Request) {
	if _, dup := o.reqs[r.ID]; dup {
		o.report(now, RuleConservation, "request %d admitted twice", r.ID)
	}
	remaining := r.Steps - r.SkippedSteps
	if remaining < 1 {
		o.report(now, RuleConservation, "request %d admitted with %d effective steps", r.ID, remaining)
	}
	o.reqs[r.ID] = &reqState{
		res:           r.Res,
		arrival:       r.Arrival,
		deadline:      r.Deadline(),
		remaining:     remaining,
		qualityBudget: r.QualityBudget,
	}
	o.admitted++
}

// onPlanComputed audits the pending snapshot every plan was made from,
// rejected plans included. Pending and Late must be disjoint and each
// sorted by (arrival, ID); together they must be exactly the ledger's
// requests that are not running and have steps left, with the tracker's
// step counts; every Late mark must hold at ctx.Now, with a deadline no
// earlier than the request's arrival, and that deadline in LateDue.
func (o *Oracle) onPlanComputed(now, _ time.Duration, ctx *sched.PlanContext) {
	if len(ctx.LateDue) != len(ctx.Late) {
		o.report(now, RuleMembership, "%d late requests but %d late deadlines", len(ctx.Late), len(ctx.LateDue))
	}
	seen := make(map[workload.RequestID]bool, len(ctx.Pending)+len(ctx.Late))
	for li, list := range [2][]*sched.RequestState{ctx.Pending, ctx.Late} {
		name := [2]string{"pending", "late"}[li]
		for i, st := range list {
			id := st.Req.ID
			if i > 0 && sched.ArrivalOrder(list[i-1], st) >= 0 {
				o.report(now, RuleMembership, "%s list out of (arrival, ID) order: %d before %d", name, list[i-1].Req.ID, id)
			}
			if seen[id] {
				o.report(now, RuleMembership, "request %d listed twice across pending and late", id)
			}
			seen[id] = true
			rec, ok := o.reqs[id]
			switch {
			case !ok:
				o.report(now, RuleMembership, "%s request %d unknown to the ledger", name, id)
			case rec.running:
				o.report(now, RuleMembership, "request %d is %s and running at once", id, name)
			case rec.remaining != st.Remaining:
				o.report(now, RuleMembership, "request %d: tracker says %d steps remain, ledger says %d",
					id, st.Remaining, rec.remaining)
			}
			if li == 1 {
				if !st.LateHolds(ctx.Profile, ctx.Now) || st.Late.Deadline < st.Req.Arrival {
					o.report(now, RuleMembership, "late request %d (arrived %v): its mark %+v does not hold at %v",
						id, st.Req.Arrival, st.Late, ctx.Now)
				}
				if i < len(ctx.LateDue) && ctx.LateDue[i] != st.Late.Deadline {
					o.report(now, RuleMembership, "late request %d: due %v, mark deadline %v", id, ctx.LateDue[i], st.Late.Deadline)
				}
			}
		}
	}
	for id, rec := range o.reqs {
		if !rec.running && rec.remaining > 0 && !seen[id] {
			o.report(now, RuleMembership, "request %d waits with %d steps left but is in neither pending nor late", id, rec.remaining)
		}
	}
}

func (o *Oracle) onPlanned(now time.Duration, ctx *sched.PlanContext, plan []sched.Assignment) {
	o.plans++
	// Double-entry free mask: the engine's idle view must equal the owned
	// capacity minus the oracle's independently tracked busy and failed sets
	// (re-derived across resizes by onResized).
	if expect := o.capacity.Without(o.busy).Without(o.failed); ctx.Free != expect {
		o.report(now, RuleConservation, "planner saw free=%v but ledger says %v (capacity=%v busy=%v failed=%v)",
			ctx.Free, expect, o.capacity, o.busy, o.failed)
	}
	if ctx.Capacity != 0 && ctx.Capacity != o.capacity {
		o.report(now, RuleConservation, "planner saw capacity=%v but ledger says %v", ctx.Capacity, o.capacity)
	}
	for _, v := range CheckPlan(ctx, plan, o.cfg.Tau) {
		o.report(v.At, v.Rule, "%s", v.Detail)
	}
}

func (o *Oracle) onRunStarted(now time.Duration, run *engine.Run) {
	g := run.Asg.Group
	if err := o.cfg.Topo.ValidGroup(g); err != nil {
		o.report(now, RuleLegality, "started block on illegal group: %v", err)
	}
	if g.Overlaps(o.busy) {
		o.report(now, RuleCapacity, "block %d double-books GPUs %v (busy=%v)", run.ID, g&o.busy, o.busy)
	}
	if g.Overlaps(o.failed) {
		o.report(now, RuleCapacity, "block %d dispatched onto failed GPUs %v", run.ID, g&o.failed)
	}
	if g.Without(o.capacity) != 0 {
		o.report(now, RuleCapacity, "block %d dispatched onto GPUs %v outside owned capacity %v",
			run.ID, g.Without(o.capacity), o.capacity)
	}
	if run.Start != now {
		o.report(now, RuleCostModel, "block %d starts at %s, not now", run.ID, run.Start)
	}

	// Projected finish must be exactly what the cost model implies.
	maxSteps := 0
	for id, n := range run.Steps {
		rec, ok := o.reqs[id]
		if !ok {
			o.report(now, RuleMembership, "block %d runs unknown request %d", run.ID, id)
			continue
		}
		if rec.running {
			o.report(now, RuleMembership, "request %d started while already running", id)
		}
		want := run.Asg.Steps
		if want > rec.remaining {
			want = rec.remaining
		}
		if n != want {
			o.report(now, RuleMembership, "request %d granted %d steps, expected min(%d assigned, %d remaining)",
				id, n, run.Asg.Steps, rec.remaining)
		}
		rec.running = true
		if n > maxSteps {
			maxSteps = n
		}
		// Placement preservation: resuming anywhere but the latent's home is
		// an explicit migration the engine must charge as a remap.
		if prev, started := o.latents[id]; started && prev != g {
			o.migrations++
		}
	}
	if want := run.Start + run.Overhead + time.Duration(maxSteps)*run.StepTime; run.End != want {
		o.report(now, RuleCostModel, "block %d projects finish %s, cost model implies %s", run.ID, run.End, want)
	}
	nominal := o.est.StepTime(run.Res, g, len(run.Asg.Requests))
	// Cache-assisted blocks realize the γ-discounted step time (the engine
	// discounts after jitter, so the envelope transfers to the discounted
	// nominal exactly).
	if c := run.Asg.CacheInterval; c > 1 {
		gamma := costmodel.DefaultCachedStepRelCost
		if o.cfg.Profile != nil {
			gamma = o.cfg.Profile.CachedStepRelCost()
		}
		nominal = time.Duration(float64(nominal) * costmodel.CacheDiscount(gamma, c))
	}
	if !o.withinJitter(run.StepTime, nominal) {
		o.report(now, RuleCostModel,
			"block %d realized step time %s outside the jitter envelope of nominal %s (noise=%.4f)",
			run.ID, run.StepTime, nominal, o.noise)
	}

	o.busy = o.busy.Union(g)
	o.inflight[run.ID] = run
}

// withinJitter bounds the realized step time by what costmodel.Jitter can
// produce: exact when noise is zero, otherwise at least half the nominal
// (the hard clamp) and at most nominal x (1 + 16 sigma) — sixteen standard
// deviations, unreachable by an honest draw.
func (o *Oracle) withinJitter(realized, nominal time.Duration) bool {
	if o.noise <= 0 {
		return realized == nominal
	}
	lo := nominal/2 - time.Nanosecond
	hi := time.Duration(float64(nominal)*(1+16*o.noise)) + time.Nanosecond
	return realized >= lo && realized <= hi
}

func (o *Oracle) onRunFinished(now time.Duration, run *engine.Run) {
	if _, ok := o.inflight[run.ID]; !ok {
		o.report(now, RuleConservation, "block %d finished but was never started", run.ID)
		return
	}
	if now < run.End {
		o.report(now, RuleCostModel, "block %d finished at %s before its projected end %s", run.ID, now, run.End)
	}
	delete(o.inflight, run.ID)
	o.busy = o.busy.Without(run.Asg.Group)
	for id, n := range run.Steps {
		rec, ok := o.reqs[id]
		if !ok {
			continue // already reported at start
		}
		rec.running = false
		rec.remaining -= n
		if rec.remaining < 0 {
			o.report(now, RuleConservation, "request %d overshot its step budget by %d", id, -rec.remaining)
		}
		o.creditQuality(now, id, rec, n, run.Asg.CacheInterval)
		o.latents[id] = run.Asg.Group
	}
}

// creditQuality charges a (possibly partial) cache-assisted block's
// approximated steps to the oracle's quality ledger — the same ApproxSteps
// prefix convention the control loop credits with — and trips RuleQuality if
// the request ever exceeds its budget.
func (o *Oracle) creditQuality(now time.Duration, id workload.RequestID, rec *reqState, steps, interval int) {
	apx := sched.ApproxSteps(steps, interval)
	if apx == 0 {
		return
	}
	rec.qualityUsed += apx
	if rec.qualityUsed > rec.qualityBudget {
		o.report(now, RuleQuality, "request %d approximated %d steps, exceeding its quality budget %d",
			id, rec.qualityUsed, rec.qualityBudget)
	}
}

func (o *Oracle) onRunAborted(now time.Duration, run *engine.Run, stepsDone map[workload.RequestID]int) {
	if _, ok := o.inflight[run.ID]; !ok {
		o.report(now, RuleConservation, "block %d aborted but was never started", run.ID)
		return
	}
	if !run.Asg.Group.Overlaps(o.failed) {
		o.report(now, RuleConservation, "block %d aborted without touching a failed GPU (group=%v failed=%v)",
			run.ID, run.Asg.Group, o.failed)
	}
	delete(o.inflight, run.ID)
	o.busy = o.busy.Without(run.Asg.Group)
	for id, n := range run.Steps {
		rec, ok := o.reqs[id]
		if !ok {
			continue
		}
		rec.running = false
		done := stepsDone[id]
		if done < 0 || done > n {
			o.report(now, RuleConservation, "request %d credited %d steps of a %d-step block", id, done, n)
		}
		rec.remaining -= done
		if rec.remaining < 0 {
			o.report(now, RuleConservation, "request %d overshot its step budget by %d", id, -rec.remaining)
		}
		o.creditQuality(now, id, rec, done, run.Asg.CacheInterval)
		// Mirror the engine's latent rule: the shard survives on the group's
		// live members, and the entry is kept so the next placement is a paid
		// reconfiguration.
		if _, exists := o.latents[id]; exists || done > 0 {
			o.latents[id] = run.Asg.Group.Without(o.failed)
		}
	}
}

// onResized re-derives the capacity ledger across a planned capacity change.
// It fires before the RunPreempted stream for the same resize, so busy GPUs
// in the removed set are legal here — each such block must then be preempted
// before the next plan, or the free-mask re-derivation in onPlanned trips.
func (o *Oracle) onResized(now time.Duration, removed, added simgpu.Mask) {
	o.resizes++
	if removed == 0 && added == 0 {
		o.report(now, RuleConservation, "no-op resize observed (hook contract: effective changes only)")
	}
	if removed.Overlaps(added) {
		o.report(now, RuleConservation, "resize removes and adds GPUs %v at once", removed&added)
	}
	if removed.Without(o.capacity) != 0 {
		o.report(now, RuleConservation, "resize removed GPUs %v the shard never owned (capacity=%v)",
			removed.Without(o.capacity), o.capacity)
	}
	if added.Overlaps(o.capacity) {
		o.report(now, RuleConservation, "resize added GPUs %v the shard already owns", added&o.capacity)
	}
	o.capacity = o.capacity.Without(removed).Union(added)
	// Parked latents lose their departed shards (members of about-to-be-
	// preempted blocks are overwritten again by onRunPreempted, matching the
	// engine's sweep).
	for id, m := range o.latents {
		if m.Overlaps(removed) {
			o.latents[id] = m.Without(removed)
		}
	}
}

// onRunPreempted mirrors onRunAborted for planned resizes: the block must
// actually have lost GPUs to the resize (its group no longer fits the owned
// capacity), steps are credited, and the latent survives on the retained,
// healthy members — no work may be lost on a cooperative handoff.
func (o *Oracle) onRunPreempted(now time.Duration, run *engine.Run, stepsDone map[workload.RequestID]int) {
	if _, ok := o.inflight[run.ID]; !ok {
		o.report(now, RuleConservation, "block %d preempted but was never started", run.ID)
		return
	}
	if run.Asg.Group.Without(o.capacity) == 0 {
		o.report(now, RuleConservation, "block %d preempted without losing a GPU (group=%v capacity=%v)",
			run.ID, run.Asg.Group, o.capacity)
	}
	delete(o.inflight, run.ID)
	o.busy = o.busy.Without(run.Asg.Group)
	o.preempted++
	for id, n := range run.Steps {
		rec, ok := o.reqs[id]
		if !ok {
			continue
		}
		rec.running = false
		done := stepsDone[id]
		if done < 0 || done > n {
			o.report(now, RuleConservation, "request %d credited %d steps of a %d-step block", id, done, n)
		}
		rec.remaining -= done
		if rec.remaining < 0 {
			o.report(now, RuleConservation, "request %d overshot its step budget by %d", id, -rec.remaining)
		}
		o.creditQuality(now, id, rec, done, run.Asg.CacheInterval)
		// Engine latent rule for resizes: survive on the group's retained
		// (still-owned), healthy members; entry kept so the next placement is
		// a paid reconfiguration.
		if _, exists := o.latents[id]; exists || done > 0 {
			o.latents[id] = (run.Asg.Group & o.capacity).Without(o.failed)
		}
	}
}

func (o *Oracle) onGPUFailed(now time.Duration, mask simgpu.Mask) {
	if mask.Overlaps(o.failed) {
		o.report(now, RuleConservation, "GPUs %v reported failed twice", mask&o.failed)
	}
	o.failed = o.failed.Union(mask)
	// Parked latents lose their dead shards (members of soon-to-be-aborted
	// blocks are overwritten again by onRunAborted, matching the engine).
	for id, m := range o.latents {
		if m.Overlaps(mask) {
			o.latents[id] = m.Without(mask)
		}
	}
}

func (o *Oracle) onGPURecovered(now time.Duration, mask simgpu.Mask) {
	if mask.Without(o.failed) != 0 {
		o.report(now, RuleConservation, "GPUs %v recovered without having failed", mask.Without(o.failed))
	}
	o.failed = o.failed.Without(mask)
}

func (o *Oracle) onFinished(now time.Duration, out control.Outcome) {
	rec, ok := o.reqs[out.ID]
	if !ok {
		o.report(now, RuleConservation, "request %d finished but is not in the ledger", out.ID)
		return
	}
	if rec.remaining != 0 {
		o.report(now, RuleConservation, "request %d finished with %d steps outstanding", out.ID, rec.remaining)
	}
	if out.Completion < rec.arrival {
		o.report(now, RuleOutcome, "request %d completed at %s before its arrival %s", out.ID, out.Completion, rec.arrival)
	}
	if out.Met != (out.Completion <= out.Deadline) {
		o.report(now, RuleOutcome, "request %d SLO verdict %v contradicts completion %s vs deadline %s",
			out.ID, out.Met, out.Completion, out.Deadline)
	}
	if out.Approximated != rec.qualityUsed {
		o.report(now, RuleQuality, "request %d retired with %d approximated steps but the ledger credited %d",
			out.ID, out.Approximated, rec.qualityUsed)
	}
	o.retire(out.ID)
}

func (o *Oracle) onDropped(now time.Duration, out control.Outcome) {
	rec, ok := o.reqs[out.ID]
	if !ok {
		o.report(now, RuleConservation, "request %d dropped but is not in the ledger", out.ID)
		return
	}
	if !out.Dropped {
		o.report(now, RuleOutcome, "request %d retired through the drop path without Dropped set", out.ID)
	}
	if out.Approximated != rec.qualityUsed {
		o.report(now, RuleQuality, "request %d dropped with %d approximated steps but the ledger credited %d",
			out.ID, out.Approximated, rec.qualityUsed)
	}
	o.retire(out.ID)
}

func (o *Oracle) retire(id workload.RequestID) {
	delete(o.reqs, id)
	delete(o.latents, id)
	o.finalized++
}

// VerifyResult runs the end-of-run audits that only make sense once the
// loop has drained: every admitted request finalized exactly once, all GPUs
// idle again, and the engine's remap counter equal to the migrations the
// oracle observed (placement preservation is "preserved unless explicitly
// migrated" — no silent moves, no phantom charges). It returns an error
// summarizing all violations, including any recorded earlier.
func (o *Oracle) VerifyResult(res *control.Result) error {
	at := res.Makespan
	if o.busy != 0 {
		o.report(at, RuleConservation, "run drained with GPUs %v still marked busy", o.busy)
	}
	if len(o.inflight) != 0 {
		o.report(at, RuleConservation, "run drained with %d blocks still in flight", len(o.inflight))
	}
	if len(o.reqs) != 0 {
		o.report(at, RuleConservation, "%d admitted requests were never finalized", len(o.reqs))
	}
	if o.finalized != o.admitted {
		o.report(at, RuleConservation, "admitted %d requests but finalized %d", o.admitted, o.finalized)
	}
	if len(res.Outcomes) != o.finalized {
		o.report(at, RuleConservation, "result holds %d outcomes for %d finalizations", len(res.Outcomes), o.finalized)
	}
	if res.Remaps != o.migrations {
		o.report(at, RulePlacement, "engine charged %d remaps but the oracle observed %d migrations",
			res.Remaps, o.migrations)
	}
	if res.RunsPreempted != o.preempted {
		o.report(at, RuleConservation, "engine counted %d preemptions but the oracle observed %d",
			res.RunsPreempted, o.preempted)
	}
	if res.Resizes != o.resizes {
		o.report(at, RuleConservation, "engine counted %d resizes but the oracle observed %d",
			res.Resizes, o.resizes)
	}
	return o.Err()
}

// Err returns an error summarizing every recorded violation, or nil.
func (o *Oracle) Err() error {
	vs := o.Violations()
	if len(vs) == 0 {
		return nil
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d invariant violation(s):", len(vs))
	for i, v := range vs {
		if i == 8 {
			fmt.Fprintf(&sb, "\n  ... and %d more", len(vs)-i)
			break
		}
		sb.WriteString("\n  " + v.Error())
	}
	return fmt.Errorf("%s", sb.String())
}
