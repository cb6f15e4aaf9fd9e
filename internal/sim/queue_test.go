package sim

import (
	"slices"
	"testing"
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/sched"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

// TestPlanContextTrackerMatchesSnapshot checks the contract that lets the
// validator, the round log and the lifecycle recorder resolve a request in
// O(1): at every plan, ctx.Pending and ctx.Late are disjoint, each sorted by
// (arrival, ID), hold only tracked requests that are neither running nor
// finished, and ctx.PendingState answers from the tracker exactly as
// membership in either list does — through drops, fault requeues and resize
// preemptions, for a round-based and an event-driven scheduler. Every Late
// mark holds at the plan's instant, with its deadline in LateDue; only the
// scheduler that stamps marks ever sees Late non-empty. Pending and Late are
// the loop's own lists, so the filter a per-round copy once applied is an
// invariant of those lists.
func TestPlanContextTrackerMatchesSnapshot(t *testing.T) {
	for _, sc := range []sched.Scheduler{tetri(), sched.NewEDF()} {
		plans, requeued, held := 0, 0, 0
		check := func(now, _ time.Duration, ctx *sched.PlanContext) {
			plans++
			if ctx.Tracked == nil {
				t.Fatalf("%s: plan at %v has no tracker", sc.Name(), now)
			}
			if len(ctx.LateDue) != len(ctx.Late) {
				t.Fatalf("%s: %d late requests, %d late deadlines", sc.Name(), len(ctx.Late), len(ctx.LateDue))
			}
			held += len(ctx.Late)
			in := make(map[workload.RequestID]bool, len(ctx.Pending)+len(ctx.Late))
			for li, list := range [][]*sched.RequestState{ctx.Pending, ctx.Late} {
				for i, st := range list {
					if i > 0 && sched.ArrivalOrder(list[i-1], st) >= 0 {
						t.Fatalf("%s: list %d out of arrival order at %v: %d before %d", sc.Name(), li, now, list[i-1].Req.ID, st.Req.ID)
					}
					if in[st.Req.ID] {
						t.Fatalf("%s: request %d in both lists at %v", sc.Name(), st.Req.ID, now)
					}
					if st.Running || st.Remaining <= 0 || ctx.Tracked[st.Req.ID] != st {
						t.Fatalf("%s: pending request %d at %v: running %v, %d steps left, tracked %v",
							sc.Name(), st.Req.ID, now, st.Running, st.Remaining, ctx.Tracked[st.Req.ID] == st)
					}
					if got, ok := ctx.PendingState(st.Req.ID); !ok || got != st {
						t.Fatalf("%s: pending request %d does not resolve to its state", sc.Name(), st.Req.ID)
					}
					if li == 1 && (!st.LateHolds(ctx.Profile, now) || ctx.LateDue[i] != st.Late.Deadline) {
						t.Fatalf("%s: late request %d at %v: mark %+v, due %v", sc.Name(), st.Req.ID, now, st.Late, ctx.LateDue[i])
					}
					in[st.Req.ID] = true
				}
			}
			for id := range ctx.Tracked {
				if _, ok := ctx.PendingState(id); ok != in[id] {
					t.Fatalf("%s: request %d: PendingState %v, in snapshot %v", sc.Name(), id, ok, in[id])
				}
			}
		}
		res := runSim(t, sc, faultTrace(120, 5), churn, func(c *Config) {
			c.Hooks = control.Hooks{
				PlanComputed: check,
				Requeued:     func(time.Duration, workload.RequestID, control.RequeueCause) { requeued++ },
			}
		})
		dropped := 0
		for _, o := range res.Outcomes {
			if o.Dropped {
				dropped++
			}
		}
		if plans == 0 || requeued == 0 || dropped == 0 {
			t.Fatalf("%s: scenario too tame: %d plans, %d requeues, %d drops", sc.Name(), plans, requeued, dropped)
		}
		if wantHeld := sc.Name() == "TetriServe"; (held > 0) != wantHeld {
			t.Fatalf("%s: %d late requests held across plans; want some: %v", sc.Name(), held, wantHeld)
		}
	}
}

// churn adds drops, fault requeues and resize preemptions to a run.
func churn(c *Config) {
	c.DropLateFactor = 2
	c.Faults = []simgpu.Fault{
		{GPU: 1, FailAt: 20 * time.Second, RecoverAt: 50 * time.Second},
		{GPU: 6, FailAt: 70 * time.Second},
	}
	c.Resizes = []simgpu.Resize{
		{At: 30 * time.Second, NewMask: simgpu.MaskRange(0, 4)},
		{At: 90 * time.Second, NewMask: simgpu.MaskRange(0, 8)},
	}
}

// pendingGuard wraps a scheduler and records whether any Plan call left
// ctx.Pending, ctx.Late or ctx.LateDue different from what it was handed.
type pendingGuard struct {
	sched.Scheduler
	before, beforeLate []*sched.RequestState
	beforeDue          []time.Duration
	plans, late        int
	changed            int
}

func (g *pendingGuard) Plan(ctx *sched.PlanContext) []sched.Assignment {
	g.before = append(g.before[:0], ctx.Pending...)
	g.beforeLate = append(g.beforeLate[:0], ctx.Late...)
	g.beforeDue = append(g.beforeDue[:0], ctx.LateDue...)
	plan := g.Scheduler.Plan(ctx)
	g.plans++
	if len(ctx.Late) > 0 {
		g.late++
	}
	if !slices.Equal(g.before, ctx.Pending) || !slices.Equal(g.beforeLate, ctx.Late) || !slices.Equal(g.beforeDue, ctx.LateDue) {
		g.changed++
	}
	return plan
}

// TestSchedulersLeavePendingUnchanged: PlanContext.Pending, Late and LateDue
// alias the control loop's lists, so a scheduler that reordered or
// overwrote them would corrupt the loop. Every in-tree scheduler must hand
// them back element for element as they came, through drops, fault
// requeues and resizes; the one that stamps late marks does so with Late
// non-empty.
func TestSchedulersLeavePendingUnchanged(t *testing.T) {
	for _, sc := range []sched.Scheduler{
		tetri(), sched.NewEDF(), sched.NewFixedSP(2), sched.NewRSSP(4), sched.NewThroughput(),
	} {
		g := &pendingGuard{Scheduler: sc}
		runSim(t, g, faultTrace(120, 5), churn)
		if g.plans == 0 || g.changed != 0 {
			t.Fatalf("%s: %d of %d plans changed ctx.Pending, ctx.Late or ctx.LateDue", sc.Name(), g.changed, g.plans)
		}
		if sc.Name() == "TetriServe" && g.late == 0 {
			t.Fatalf("%s: no plan saw a late request held in ctx.Late", sc.Name())
		}
	}
}
