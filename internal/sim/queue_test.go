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
// O(1): at every plan, ctx.Pending is sorted by (arrival, ID), holds only
// tracked requests that are neither running nor finished, and
// ctx.PendingState answers from the tracker exactly as membership in
// ctx.Pending does — through drops, fault requeues and resize preemptions,
// for a round-based and an event-driven scheduler. Pending is the loop's
// queue itself, so the filter a per-round copy once applied is an invariant
// of that queue.
func TestPlanContextTrackerMatchesSnapshot(t *testing.T) {
	for _, sc := range []sched.Scheduler{tetri(), sched.NewEDF()} {
		plans, requeued := 0, 0
		check := func(now, _ time.Duration, ctx *sched.PlanContext) {
			plans++
			if ctx.Tracked == nil {
				t.Fatalf("%s: plan at %v has no tracker", sc.Name(), now)
			}
			in := make(map[workload.RequestID]bool, len(ctx.Pending))
			for i, st := range ctx.Pending {
				if i > 0 {
					prev := ctx.Pending[i-1].Req
					if prev.Arrival > st.Req.Arrival || (prev.Arrival == st.Req.Arrival && prev.ID >= st.Req.ID) {
						t.Fatalf("%s: pending out of arrival order at %v: %d before %d", sc.Name(), now, prev.ID, st.Req.ID)
					}
				}
				if st.Running || st.Remaining <= 0 || ctx.Tracked[st.Req.ID] != st {
					t.Fatalf("%s: pending request %d at %v: running %v, %d steps left, tracked %v",
						sc.Name(), st.Req.ID, now, st.Running, st.Remaining, ctx.Tracked[st.Req.ID] == st)
				}
				if got, ok := ctx.PendingState(st.Req.ID); !ok || got != st {
					t.Fatalf("%s: pending request %d does not resolve to its state", sc.Name(), st.Req.ID)
				}
				in[st.Req.ID] = true
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
// ctx.Pending different from what it was handed.
type pendingGuard struct {
	sched.Scheduler
	before  []*sched.RequestState
	plans   int
	changed int
}

func (g *pendingGuard) Plan(ctx *sched.PlanContext) []sched.Assignment {
	g.before = append(g.before[:0], ctx.Pending...)
	plan := g.Scheduler.Plan(ctx)
	g.plans++
	if !slices.Equal(g.before, ctx.Pending) {
		g.changed++
	}
	return plan
}

// TestSchedulersLeavePendingUnchanged: PlanContext.Pending aliases the
// control loop's queue, so a scheduler that reordered or overwrote it would
// corrupt the loop. Every in-tree scheduler must hand it back element for
// element as it came, through drops, fault requeues and resizes.
func TestSchedulersLeavePendingUnchanged(t *testing.T) {
	for _, sc := range []sched.Scheduler{
		tetri(), sched.NewEDF(), sched.NewFixedSP(2), sched.NewRSSP(4), sched.NewThroughput(),
	} {
		g := &pendingGuard{Scheduler: sc}
		runSim(t, g, faultTrace(120, 5), churn)
		if g.plans == 0 || g.changed != 0 {
			t.Fatalf("%s: %d of %d plans changed ctx.Pending", sc.Name(), g.changed, g.plans)
		}
	}
}
