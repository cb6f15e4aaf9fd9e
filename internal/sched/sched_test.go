package sched

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"tetriserve/internal/costmodel"
	"tetriserve/internal/model"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

// testProfile builds the FLUX/H100 lookup table once.
var testProfile = costmodel.BuildProfile(
	costmodel.NewEstimator(model.FLUX(), simgpu.H100x8()), costmodel.ProfilerConfig{})

// mkState builds a request state for tests.
func mkState(id int, res model.Resolution, remaining int, arrival, slo time.Duration) *RequestState {
	return &RequestState{
		Req: &workload.Request{
			ID:      workload.RequestID(id),
			Res:     res,
			Steps:   remaining,
			Arrival: arrival,
			SLO:     slo,
		},
		Remaining: remaining,
	}
}

func mkCtx(now time.Duration, free simgpu.Mask, pending ...*RequestState) *PlanContext {
	return &PlanContext{
		Now:     now,
		Free:    free,
		Pending: pending,
		Profile: testProfile,
		Topo:    simgpu.H100x8(),
	}
}

func TestRequestStateAvgDegree(t *testing.T) {
	st := mkState(1, model.Res512, 10, 0, time.Second)
	st.StepsByDegree.Add(1, 10)
	st.StepsByDegree.Add(4, 10)
	if got := st.AvgDegree(); got != 2.5 {
		t.Fatalf("AvgDegree = %v, want 2.5", got)
	}
	empty := mkState(2, model.Res512, 10, 0, time.Second)
	if empty.AvgDegree() != 0 {
		t.Fatal("empty degree history should average 0")
	}
}

func TestDefinitelyLate(t *testing.T) {
	// 2048px, 50 steps, fastest step ≈ 95ms → needs ≈4.8s.
	st := mkState(1, model.Res2048, 50, 0, 5*time.Second)
	if st.DefinitelyLate(0, testProfile) {
		t.Fatal("fresh 2048px request with 5s budget is not definitely late")
	}
	if !st.DefinitelyLate(time.Second, testProfile) {
		t.Fatal("with only 4s left, 50 steps at ≈95ms cannot finish")
	}
}

func TestStateClone(t *testing.T) {
	st := mkState(1, model.Res512, 5, 0, time.Second)
	st.StepsByDegree.Add(2, 3)
	c := st.Clone()
	c.StepsByDegree.Add(2, 99)
	c.Remaining = 1
	if st.StepsByDegree.Get(2) != 3 || st.Remaining != 5 {
		t.Fatal("Clone is not deep")
	}
}

func TestAssignmentValidate(t *testing.T) {
	topo := simgpu.H100x8()
	ok := Assignment{Requests: []workload.RequestID{1}, Group: simgpu.MaskOf(0, 1), Steps: 5}
	if err := ok.Validate(topo); err != nil {
		t.Fatalf("valid assignment rejected: %v", err)
	}
	bad := []Assignment{
		{Group: simgpu.MaskOf(0), Steps: 1},                                          // no requests
		{Requests: []workload.RequestID{1}, Group: simgpu.MaskOf(0), Steps: 0},       // no steps
		{Requests: []workload.RequestID{1}, Group: simgpu.MaskOf(0, 1, 2), Steps: 1}, // size 3
	}
	for i, a := range bad {
		if err := a.Validate(topo); err == nil {
			t.Errorf("bad assignment %d accepted", i)
		}
	}
}

func TestValidatePlanCatchesBusyGPUs(t *testing.T) {
	st := mkState(1, model.Res512, 10, 0, 2*time.Second)
	ctx := mkCtx(0, simgpu.MaskOf(2, 3), st)
	plan := []Assignment{{Requests: []workload.RequestID{1}, Group: simgpu.MaskOf(0, 1), Steps: 1}}
	if err := ValidatePlan(ctx, plan); err == nil || !strings.Contains(err.Error(), "busy") {
		t.Fatalf("busy GPUs not caught: %v", err)
	}
}

func TestValidatePlanCatchesOverlap(t *testing.T) {
	a := mkState(1, model.Res512, 10, 0, 2*time.Second)
	b := mkState(2, model.Res512, 10, 0, 2*time.Second)
	ctx := mkCtx(0, simgpu.MaskRange(0, 8), a, b)
	plan := []Assignment{
		{Requests: []workload.RequestID{1}, Group: simgpu.MaskOf(0, 1), Steps: 1},
		// Second group overlaps GPU 1.
		{Requests: []workload.RequestID{2}, Group: simgpu.MaskOf(1), Steps: 1},
	}
	if err := ValidatePlan(ctx, plan); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("overlap not caught: %v", err)
	}
}

func TestValidatePlanCatchesUnknownRequest(t *testing.T) {
	st := mkState(1, model.Res512, 10, 0, 2*time.Second)
	ctx := mkCtx(0, simgpu.MaskRange(0, 8), st)
	plan := []Assignment{{Requests: []workload.RequestID{99}, Group: simgpu.MaskOf(0), Steps: 1}}
	if err := ValidatePlan(ctx, plan); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("unknown request not caught: %v", err)
	}
}

func TestValidatePlanCatchesDoubleAssignment(t *testing.T) {
	st := mkState(1, model.Res512, 10, 0, 2*time.Second)
	ctx := mkCtx(0, simgpu.MaskRange(0, 8), st)
	plan := []Assignment{
		{Requests: []workload.RequestID{1}, Group: simgpu.MaskOf(0), Steps: 1},
		{Requests: []workload.RequestID{1}, Group: simgpu.MaskOf(1), Steps: 1},
	}
	if err := ValidatePlan(ctx, plan); err == nil || !strings.Contains(err.Error(), "two assignments") {
		t.Fatalf("double assignment not caught: %v", err)
	}
}

func TestValidatePlanCatchesOverSteps(t *testing.T) {
	st := mkState(1, model.Res512, 3, 0, 2*time.Second)
	ctx := mkCtx(0, simgpu.MaskRange(0, 8), st)
	plan := []Assignment{{Requests: []workload.RequestID{1}, Group: simgpu.MaskOf(0), Steps: 5}}
	if err := ValidatePlan(ctx, plan); err == nil || !strings.Contains(err.Error(), "remain") {
		t.Fatalf("over-steps not caught: %v", err)
	}
}

func TestValidatePlanAllowsBatchOversteps(t *testing.T) {
	a := mkState(1, model.Res256, 10, 0, 2*time.Second)
	b := mkState(2, model.Res256, 3, 0, 2*time.Second)
	ctx := mkCtx(0, simgpu.MaskRange(0, 8), a, b)
	plan := []Assignment{{Requests: []workload.RequestID{1, 2}, Group: simgpu.MaskOf(0), Steps: 8}}
	if err := ValidatePlan(ctx, plan); err != nil {
		t.Fatalf("batched early-exit member rejected: %v", err)
	}
}

func TestValidatePlanCatchesMixedResolutionBatch(t *testing.T) {
	a := mkState(1, model.Res256, 10, 0, 2*time.Second)
	b := mkState(2, model.Res512, 10, 0, 2*time.Second)
	ctx := mkCtx(0, simgpu.MaskRange(0, 8), a, b)
	plan := []Assignment{{Requests: []workload.RequestID{1, 2}, Group: simgpu.MaskOf(0), Steps: 2}}
	if err := ValidatePlan(ctx, plan); err == nil || !strings.Contains(err.Error(), "mixes resolutions") {
		t.Fatalf("mixed batch not caught: %v", err)
	}
}

// tracked builds the loop-style index over a context: every pending state
// plus the running ones, as the control loop's request tracker holds them.
func tracked(ctx *PlanContext, running ...*RequestState) map[workload.RequestID]*RequestState {
	m := map[workload.RequestID]*RequestState{}
	for _, st := range ctx.Pending {
		m[st.Req.ID] = st
	}
	for _, st := range running {
		st.Running = true
		m[st.Req.ID] = st
	}
	return m
}

// TestPendingStateTrackedMatchesScan: with the tracker set, PendingState
// answers every ID (pending, running, unknown) exactly as a scan of Pending
// does, so the validator's verdicts cannot depend on which path it took.
func TestPendingStateTrackedMatchesScan(t *testing.T) {
	a := mkState(1, model.Res512, 10, 0, 2*time.Second)
	b := mkState(2, model.Res256, 3, 0, 2*time.Second)
	run := mkState(3, model.Res512, 10, 0, 2*time.Second)
	scan := mkCtx(0, simgpu.MaskRange(0, 4), a, b)
	indexed := mkCtx(0, simgpu.MaskRange(0, 4), a, b)
	indexed.Tracked = tracked(indexed, run)
	for id := workload.RequestID(0); id <= 4; id++ {
		s1, ok1 := scan.PendingState(id)
		s2, ok2 := indexed.PendingState(id)
		if s1 != s2 || ok1 != ok2 {
			t.Fatalf("id %d: scan (%p,%v) != tracked (%p,%v)", id, s1, ok1, s2, ok2)
		}
	}
	plans := [][]Assignment{
		{{Requests: []workload.RequestID{1}, Group: simgpu.MaskOf(0), Steps: 1}},
		{{Requests: []workload.RequestID{3}, Group: simgpu.MaskOf(0), Steps: 1}},
		{{Requests: []workload.RequestID{1, 2}, Group: simgpu.MaskOf(0, 1), Steps: 2}},
		{{Requests: []workload.RequestID{2}, Group: simgpu.MaskOf(0), Steps: 5}},
		{{Requests: []workload.RequestID{2}, Group: simgpu.MaskOf(0), Steps: 1},
			{Requests: []workload.RequestID{2}, Group: simgpu.MaskOf(1), Steps: 1}},
	}
	var c PlanChecker
	for i, plan := range plans {
		e1, e2 := fmt.Sprint(ValidatePlan(scan, plan)), fmt.Sprint(c.Validate(indexed, plan))
		if e1 != e2 {
			t.Fatalf("plan %d: scan says %q, tracked says %q", i, e1, e2)
		}
	}
}

// TestPlanCheckerAllocatesNothingOnDeepQueue: with the tracker set, validating a one-request
// plan against a deep queue allocates nothing — the checker reads the
// tracker instead of indexing the queue each round.
func TestPlanCheckerAllocatesNothingOnDeepQueue(t *testing.T) {
	var pending []*RequestState
	for i := 0; i < 4096; i++ {
		pending = append(pending, mkState(i, model.Res512, 10, 0, 2*time.Second))
	}
	ctx := mkCtx(0, simgpu.MaskRange(0, 8), pending...)
	ctx.Tracked = tracked(ctx)
	plan := []Assignment{{Requests: []workload.RequestID{4000}, Group: simgpu.MaskOf(0), Steps: 1}}
	var c PlanChecker
	if err := c.Validate(ctx, plan); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = c.Validate(ctx, plan) }); allocs != 0 {
		t.Fatalf("Validate allocates %.0f times per call", allocs)
	}
}
