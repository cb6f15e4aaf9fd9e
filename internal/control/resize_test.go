package control

import (
	"testing"
	"time"

	"tetriserve/internal/clock"
	"tetriserve/internal/engine"
	"tetriserve/internal/sched"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

// drainQueue runs the loop's event queue to completion under the virtual
// clock.
func drainQueue(t *testing.T, l *Loop, clk *clock.Virtual) {
	t.Helper()
	for l.Unfinished() > 0 {
		ev := l.PopEvent()
		if ev == nil {
			t.Fatal("deadlock: queue empty with requests unfinished")
		}
		clk.Advance(ev.At)
		if err := l.Dispatch(ev); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStagedResizeAppliesAtRoundTick: on a round-based loop, ApplyResize
// between ticks stages the change; capacity flips exactly at the next round
// boundary, and a later stage overwrites an earlier one (last writer wins).
func TestStagedResizeAppliesAtRoundTick(t *testing.T) {
	clk := clock.NewVirtual()
	cfg := testConfig(idleSched{tau: time.Second})
	l, err := New(cfg, clk)
	if err != nil {
		t.Fatal(err)
	}

	all := l.Engine().Capacity()
	clk.Advance(400 * time.Millisecond)
	l.ApplyResize(simgpu.MaskRange(0, 2))
	l.ApplyResize(simgpu.MaskRange(0, 4)) // supersedes the first stage
	if l.Engine().Capacity() != all {
		t.Fatal("staged resize applied before the round tick")
	}

	ev := l.PopEvent()
	if ev == nil || ev.At != time.Second {
		t.Fatalf("next event = %+v, want the 1s tick", ev)
	}
	clk.Advance(ev.At)
	if err := l.Dispatch(ev); err != nil {
		t.Fatal(err)
	}
	if got := l.Engine().Capacity(); got != simgpu.MaskRange(0, 4) {
		t.Fatalf("capacity after tick = %v, want %v (last staged mask)", got, simgpu.MaskRange(0, 4))
	}
	if l.Engine().Resizes() != 1 {
		t.Fatalf("Resizes = %d, want 1 (stages coalesce)", l.Engine().Resizes())
	}
}

// TestApplyResizeEventDrivenPreemptsAndRequeues: on an event-driven loop the
// resize applies immediately; an in-flight block losing a GPU is preempted
// with credit, its request requeued and replanned on the remaining devices,
// and the request still completes.
func TestApplyResizeEventDrivenPreemptsAndRequeues(t *testing.T) {
	clk := clock.NewVirtual()
	cfg := testConfig(sched.NewFixedSP(2))
	var group simgpu.Mask
	var requeued []workload.RequestID
	cfg.Hooks.RunStarted = func(now time.Duration, run *engine.Run) {
		if group == 0 {
			group = run.Asg.Group
		}
	}
	var requeueCauses []RequeueCause
	cfg.Hooks.Requeued = func(now time.Duration, id workload.RequestID, cause RequeueCause) {
		requeued = append(requeued, id)
		requeueCauses = append(requeueCauses, cause)
	}
	l, err := New(cfg, clk)
	if err != nil {
		t.Fatal(err)
	}
	l.ScheduleArrival(req(0, 0, time.Minute))

	// Dispatch the arrival: the event-driven policy plans and starts a block.
	ev := l.PopEvent()
	clk.Advance(ev.At)
	if err := l.Dispatch(ev); err != nil {
		t.Fatal(err)
	}
	if group == 0 {
		t.Fatal("no block started on arrival")
	}

	// Donate one of the block's GPUs mid-flight.
	clk.Advance(10 * time.Millisecond)
	newMask := l.Engine().Capacity().Without(group.Highest())
	l.ApplyResize(newMask)
	if l.Engine().Capacity() != newMask {
		t.Fatal("event-driven resize not applied immediately")
	}
	if l.Engine().RunsPreempted() != 1 {
		t.Fatalf("RunsPreempted = %d, want 1", l.Engine().RunsPreempted())
	}
	if len(requeued) != 1 || requeued[0] != 0 {
		t.Fatalf("requeued = %v, want [0]", requeued)
	}
	if len(requeueCauses) != 1 || requeueCauses[0] != RequeueResize {
		t.Fatalf("requeue causes = %v, want [resize]", requeueCauses)
	}

	drainQueue(t, l, clk)
	res := l.Finalize()
	if len(res.Outcomes) != 1 || res.Outcomes[0].Dropped {
		t.Fatalf("outcomes = %+v, want one completed", res.Outcomes)
	}
	if res.Resizes != 1 || res.RunsPreempted != 1 {
		t.Fatalf("Resizes=%d RunsPreempted=%d, want 1, 1", res.Resizes, res.RunsPreempted)
	}
	if res.RunsAborted != 0 {
		t.Fatalf("RunsAborted = %d: a planned resize must not count as a fault", res.RunsAborted)
	}
	var preempted int
	for _, rec := range res.Runs {
		if rec.Preempted {
			if !rec.Aborted {
				t.Fatal("preempted run record not marked aborted")
			}
			preempted++
		}
	}
	if preempted != 1 {
		t.Fatalf("preempted run records = %d, want 1", preempted)
	}
}

// TestScheduleResizeDispatchesLikeAnyEvent: a pre-scheduled resize lands
// through the event queue at its At time — the simulator's path.
func TestScheduleResizeDispatchesLikeAnyEvent(t *testing.T) {
	clk := clock.NewVirtual()
	cfg := testConfig(sched.NewFixedSP(1))
	l, err := New(cfg, clk)
	if err != nil {
		t.Fatal(err)
	}
	l.ScheduleArrival(req(0, 0, time.Minute))
	l.ScheduleResize(simgpu.Resize{At: 5 * time.Millisecond, NewMask: simgpu.MaskRange(0, 4)})
	drainQueue(t, l, clk)
	res := l.Finalize()
	if res.Resizes != 1 {
		t.Fatalf("Resizes = %d, want 1", res.Resizes)
	}
	if got := l.Engine().Capacity(); got != simgpu.MaskRange(0, 4) {
		t.Fatalf("capacity = %v, want %v", got, simgpu.MaskRange(0, 4))
	}
	if len(res.Outcomes) != 1 || res.Outcomes[0].Dropped {
		t.Fatalf("outcomes = %+v, want one completed", res.Outcomes)
	}
}
