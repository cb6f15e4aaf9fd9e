package invariant

import (
	"strings"
	"testing"
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/engine"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

func testProfile(t *testing.T, topo *simgpu.Topology) *costmodel.Profile {
	t.Helper()
	return costmodel.BuildProfile(costmodel.NewEstimator(model.FLUX(), topo), costmodel.ProfilerConfig{})
}

func pendingState(id workload.RequestID, res model.Resolution, remaining int, slo time.Duration) *sched.RequestState {
	return &sched.RequestState{
		Req:       &workload.Request{ID: id, Res: res, Steps: remaining, SLO: slo},
		Remaining: remaining,
	}
}

func planCtx(t *testing.T, topo *simgpu.Topology, free simgpu.Mask, pending ...*sched.RequestState) *sched.PlanContext {
	t.Helper()
	return &sched.PlanContext{
		Free:    free,
		Pending: pending,
		Profile: testProfile(t, topo),
		Topo:    topo,
	}
}

func rules(vs []Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Rule
	}
	return out
}

func wantRule(t *testing.T, vs []Violation, rule string) {
	t.Helper()
	for _, v := range vs {
		if v.Rule == rule {
			return
		}
	}
	t.Fatalf("expected a %q violation, got %v", rule, rules(vs))
}

func TestCheckPlanCleanPlan(t *testing.T) {
	topo := simgpu.H100x8()
	ctx := planCtx(t, topo, topo.AllMask(),
		pendingState(1, model.Res1024, 50, 3*time.Second),
		pendingState(2, model.Res512, 50, 2*time.Second),
	)
	plan := []sched.Assignment{
		{Requests: []workload.RequestID{1}, Group: simgpu.MaskOf(0, 1, 2, 3), Steps: 20},
		{Requests: []workload.RequestID{2}, Group: simgpu.MaskOf(4, 5), Steps: 30},
	}
	if vs := CheckPlan(ctx, plan, 100*time.Millisecond); len(vs) != 0 {
		t.Fatalf("clean plan reported violations: %v", vs)
	}
}

func TestCheckPlanCapacityAndLegality(t *testing.T) {
	topo := simgpu.H100x8()
	st := pendingState(1, model.Res1024, 50, 3*time.Second)
	st2 := pendingState(2, model.Res1024, 50, 3*time.Second)

	// GPUs 0..3 busy: a plan touching them violates free-mask discipline.
	ctx := planCtx(t, topo, simgpu.MaskOf(4, 5, 6, 7), st, st2)
	vs := CheckPlan(ctx, []sched.Assignment{
		{Requests: []workload.RequestID{1}, Group: simgpu.MaskOf(2, 3), Steps: 10},
	}, 0)
	wantRule(t, vs, RuleCapacity)

	// Two assignments double-booking the same GPU.
	ctx = planCtx(t, topo, topo.AllMask(), st, st2)
	vs = CheckPlan(ctx, []sched.Assignment{
		{Requests: []workload.RequestID{1}, Group: simgpu.MaskOf(0, 1), Steps: 10},
		{Requests: []workload.RequestID{2}, Group: simgpu.MaskOf(1, 2), Steps: 10},
	}, 0)
	wantRule(t, vs, RuleCapacity)

	// Non-power-of-two group is topologically illegal.
	vs = CheckPlan(ctx, []sched.Assignment{
		{Requests: []workload.RequestID{1}, Group: simgpu.MaskOf(0, 1, 2), Steps: 10},
	}, 0)
	wantRule(t, vs, RuleLegality)
}

func TestCheckPlanMembership(t *testing.T) {
	topo := simgpu.H100x8()
	st := pendingState(1, model.Res1024, 8, 3*time.Second)
	ctx := planCtx(t, topo, topo.AllMask(), st)

	// Unknown request.
	vs := CheckPlan(ctx, []sched.Assignment{
		{Requests: []workload.RequestID{99}, Group: simgpu.MaskOf(0), Steps: 1},
	}, 0)
	wantRule(t, vs, RuleMembership)

	// Claimed twice.
	vs = CheckPlan(ctx, []sched.Assignment{
		{Requests: []workload.RequestID{1}, Group: simgpu.MaskOf(0), Steps: 1},
		{Requests: []workload.RequestID{1}, Group: simgpu.MaskOf(1), Steps: 1},
	}, 0)
	wantRule(t, vs, RuleMembership)

	// More steps than remain on a single-request block.
	vs = CheckPlan(ctx, []sched.Assignment{
		{Requests: []workload.RequestID{1}, Group: simgpu.MaskOf(0), Steps: 9},
	}, 0)
	wantRule(t, vs, RuleMembership)
}

func TestCheckPlanBatchRules(t *testing.T) {
	topo := simgpu.H100x8()
	tau := 100 * time.Millisecond

	// Mixed resolutions in one batch.
	a := pendingState(1, model.Res1024, 50, time.Hour)
	b := pendingState(2, model.Res512, 50, time.Hour)
	ctx := planCtx(t, topo, topo.AllMask(), a, b)
	vs := CheckPlan(ctx, []sched.Assignment{
		{Requests: []workload.RequestID{1, 2}, Group: simgpu.MaskOf(0, 1, 2, 3), Steps: 10},
	}, tau)
	wantRule(t, vs, RuleBatch)

	// Survival: the victim has so many steps left after this block that even
	// the fastest degree cannot finish by its deadline.
	host := pendingState(3, model.Res1024, 50, time.Hour)
	victim := pendingState(4, model.Res1024, 50, 200*time.Millisecond)
	ctx = planCtx(t, topo, topo.AllMask(), host, victim)
	vs = CheckPlan(ctx, []sched.Assignment{
		{Requests: []workload.RequestID{3, 4}, Group: simgpu.MaskOf(0, 1, 2, 3), Steps: 2},
	}, tau)
	wantRule(t, vs, RuleSurvival)

	// The same merge flagged best-effort is exempt: it carries already-late
	// requests by design.
	vs = CheckPlan(ctx, []sched.Assignment{
		{Requests: []workload.RequestID{3, 4}, Group: simgpu.MaskOf(0, 1, 2, 3), Steps: 2, BestEffort: true},
	}, tau)
	if len(vs) != 0 {
		t.Fatalf("best-effort batch should be exempt from survival, got %v", vs)
	}
}

// fakeRun fabricates an engine.Run the way the engine would build it, with
// zero-noise physics so the cost-model check demands exact agreement.
func fakeRun(id engine.RunID, est *costmodel.Estimator, asg sched.Assignment, res model.Resolution,
	start time.Duration, steps map[workload.RequestID]int) *engine.Run {
	maxSteps := 0
	for _, n := range steps {
		if n > maxSteps {
			maxSteps = n
		}
	}
	st := est.StepTime(res, asg.Group, len(asg.Requests))
	return &engine.Run{
		ID: id, Asg: asg, Res: res,
		Start: start, End: start + time.Duration(maxSteps)*st,
		StepTime: st, Steps: steps,
	}
}

// newTestOracle builds a non-strict oracle with exact (noise-free) physics.
func newTestOracle(t *testing.T, topo *simgpu.Topology) (*Oracle, *costmodel.Estimator) {
	t.Helper()
	m := model.FLUX()
	prof := testProfile(t, topo)
	prof.Noise = 0
	o := New(Config{Model: m, Topo: topo, Profile: prof, Tau: 100 * time.Millisecond})
	return o, costmodel.NewEstimator(m, topo)
}

func TestOracleDetectsDoubleBooking(t *testing.T) {
	topo := simgpu.H100x8()
	o, est := newTestOracle(t, topo)
	h := o.Hooks()

	r1 := &workload.Request{ID: 1, Res: model.Res1024, Steps: 10, SLO: time.Hour}
	r2 := &workload.Request{ID: 2, Res: model.Res1024, Steps: 10, SLO: time.Hour}
	h.Admitted(0, r1)
	h.Admitted(0, r2)

	g := simgpu.MaskOf(0, 1)
	h.RunStarted(0, fakeRun(1, est,
		sched.Assignment{Requests: []workload.RequestID{1}, Group: g, Steps: 10},
		model.Res1024, 0, map[workload.RequestID]int{1: 10}))
	if len(o.Violations()) != 0 {
		t.Fatalf("first start should be clean: %v", o.Violations())
	}
	// Second block lands on the same GPUs while the first is in flight.
	h.RunStarted(0, fakeRun(2, est,
		sched.Assignment{Requests: []workload.RequestID{2}, Group: g, Steps: 10},
		model.Res1024, 0, map[workload.RequestID]int{2: 10}))
	wantRule(t, o.Violations(), RuleCapacity)
}

func TestOracleDetectsWrongProjection(t *testing.T) {
	topo := simgpu.H100x8()
	o, est := newTestOracle(t, topo)
	h := o.Hooks()

	r := &workload.Request{ID: 1, Res: model.Res1024, Steps: 10, SLO: time.Hour}
	h.Admitted(0, r)
	run := fakeRun(1, est,
		sched.Assignment{Requests: []workload.RequestID{1}, Group: simgpu.MaskOf(0, 1), Steps: 10},
		model.Res1024, 0, map[workload.RequestID]int{1: 10})
	run.End += time.Millisecond // engine lied about the finish time
	h.RunStarted(0, run)
	wantRule(t, o.Violations(), RuleCostModel)
}

func TestOracleVerifyResultFlagsLeaks(t *testing.T) {
	topo := simgpu.H100x8()
	o, _ := newTestOracle(t, topo)
	h := o.Hooks()
	h.Admitted(0, &workload.Request{ID: 1, Res: model.Res1024, Steps: 10, SLO: time.Hour})

	// Request admitted but never finalized: the end-of-run audit must fail.
	err := o.VerifyResult(&control.Result{})
	if err == nil {
		t.Fatal("VerifyResult passed with an unfinalized request")
	}
	if !strings.Contains(err.Error(), RuleConservation) {
		t.Fatalf("expected a conservation violation, got: %v", err)
	}
}

func TestOracleCleanLifecycle(t *testing.T) {
	topo := simgpu.H100x8()
	o, est := newTestOracle(t, topo)
	h := o.Hooks()

	r := &workload.Request{ID: 1, Res: model.Res1024, Steps: 10, SLO: time.Hour}
	h.Admitted(0, r)
	run := fakeRun(1, est,
		sched.Assignment{Requests: []workload.RequestID{1}, Group: simgpu.MaskOf(0, 1), Steps: 10},
		model.Res1024, 0, map[workload.RequestID]int{1: 10})
	h.RunStarted(0, run)
	h.RunFinished(run.End, run)
	out := control.Outcome{ID: 1, Completion: run.End, Deadline: r.Deadline(), Met: true}
	h.Finished(run.End, out)

	res := control.Result{Outcomes: []control.Outcome{out}, Makespan: run.End}
	if err := o.VerifyResult(&res); err != nil {
		t.Fatalf("clean lifecycle failed the audit: %v", err)
	}
}

// TestOracleAuditsPendingLists: at every PlanComputed the oracle checks the
// split of the waiting requests into Pending and Late. A clean split passes;
// each case breaks one clause and must trip the membership rule.
func TestOracleAuditsPendingLists(t *testing.T) {
	topo := simgpu.H100x8()
	const now = 10 * time.Second
	type lists struct {
		pending, late []*sched.RequestState
		due           []time.Duration
	}
	cases := []struct {
		name  string
		edit  func(l *lists, prof *costmodel.Profile)
		clean bool
	}{
		{"clean split", func(*lists, *costmodel.Profile) {}, true},
		{"late out of order", func(l *lists, _ *costmodel.Profile) {
			l.late[0], l.late[1] = l.late[1], l.late[0]
			l.due[0], l.due[1] = l.due[1], l.due[0]
		}, false},
		{"request in both lists", func(l *lists, _ *costmodel.Profile) {
			l.pending = append(l.pending, l.late[1])
		}, false},
		{"waiting request missing", func(l *lists, _ *costmodel.Profile) { l.pending = nil }, false},
		{"mark does not hold", func(l *lists, prof *costmodel.Profile) {
			prof.SetCachedStepRelCost(prof.CachedStepRelCost())
		}, false},
		{"mark deadline before arrival", func(l *lists, _ *costmodel.Profile) {
			l.late[0].Late.Deadline = l.late[0].Req.Arrival - 1
			l.due[0] = l.late[0].Late.Deadline
		}, false},
		{"due differs from the mark", func(l *lists, _ *costmodel.Profile) { l.due[1]++ }, false},
		{"due missing", func(l *lists, _ *costmodel.Profile) { l.due = l.due[:1] }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, _ := newTestOracle(t, topo)
			prof := o.cfg.Profile
			h := o.Hooks()
			var all []*sched.RequestState
			for i := 1; i <= 3; i++ {
				r := &workload.Request{ID: workload.RequestID(i), Res: model.Res1024, Steps: 10,
					Arrival: time.Duration(i) * time.Second, SLO: time.Second}
				h.Admitted(r.Arrival, r)
				all = append(all, &sched.RequestState{Req: r, Remaining: 10})
			}
			var l lists
			l.pending = all[:1]
			for _, st := range all[1:] {
				st.Late = sched.LateMark{Prof: prof, Version: prof.Version(), Remaining: st.Remaining, At: now, Deadline: st.Deadline()}
				l.late = append(l.late, st)
				l.due = append(l.due, st.Deadline())
			}
			tc.edit(&l, prof)
			h.PlanComputed(now, 0, &sched.PlanContext{Now: now, Pending: l.pending, Late: l.late, LateDue: l.due,
				Free: topo.AllMask(), Profile: prof, Topo: topo})
			if tc.clean {
				if vs := o.Violations(); len(vs) != 0 {
					t.Fatalf("clean split flagged: %v", vs)
				}
				return
			}
			wantRule(t, o.Violations(), RuleMembership)
		})
	}
}
