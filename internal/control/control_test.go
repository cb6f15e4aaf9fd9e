package control

import (
	"strings"
	"testing"
	"time"

	"tetriserve/internal/clock"
	"tetriserve/internal/core"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/engine"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

// idleSched is a round-based policy that never schedules anything —
// isolating the loop's own bookkeeping (ticks, expiry) from planning.
type idleSched struct{ tau time.Duration }

func (s idleSched) Name() string                               { return "idle" }
func (s idleSched) RoundDuration() time.Duration               { return s.tau }
func (s idleSched) Plan(*sched.PlanContext) []sched.Assignment { return nil }

// brokenSched emits a plan referencing a request that does not exist, which
// the validator must refuse.
type brokenSched struct{}

func (brokenSched) Name() string                 { return "broken" }
func (brokenSched) RoundDuration() time.Duration { return time.Second }
func (brokenSched) Plan(*sched.PlanContext) []sched.Assignment {
	return []sched.Assignment{{
		Requests: []workload.RequestID{9999},
		Group:    simgpu.MaskOf(0),
		Steps:    1,
	}}
}

func testConfig(s sched.Scheduler) Config {
	mdl := model.FLUX()
	topo := simgpu.H100x8()
	return Config{
		Model:     mdl,
		Topo:      topo,
		Scheduler: s,
		Profile:   costmodel.BuildProfile(costmodel.NewEstimator(mdl, topo), costmodel.ProfilerConfig{}),
		Engine:    engine.DefaultConfig(),
	}
}

func req(id int, arrival, slo time.Duration) *workload.Request {
	return &workload.Request{
		ID:      workload.RequestID(id),
		Res:     model.Res256,
		Steps:   50,
		Arrival: arrival,
		SLO:     slo,
	}
}

// TestDriveStylesAgreeOnDropBoundary pins the unified DropLateFactor
// semantics across the two adapter drive styles: whether a request is
// pre-scheduled on the event queue and drained to completion (the
// simulator) or injected via Arrive mid-run (the driver), it must expire at
// the exact same round boundary.
func TestDriveStylesAgreeOnDropBoundary(t *testing.T) {
	const (
		arrival = 100 * time.Millisecond
		slo     = 300 * time.Millisecond
		factor  = 1.0
	)
	// Expiry limit is 400ms; with τ = 1s the first planning boundary past
	// it is the tick at exactly 1s.
	want := time.Second

	run := func(drive func(l *Loop, clk *clock.Virtual)) time.Duration {
		clk := clock.NewVirtual()
		cfg := testConfig(idleSched{tau: time.Second})
		cfg.DropLateFactor = factor
		var droppedAt time.Duration = -1
		cfg.Hooks.Dropped = func(now time.Duration, o Outcome) { droppedAt = now }
		l, err := New(cfg, clk)
		if err != nil {
			t.Fatal(err)
		}
		drive(l, clk)
		if l.Unfinished() != 0 || l.StateCount() != 0 {
			t.Fatalf("request not finalized: unfinished=%d states=%d", l.Unfinished(), l.StateCount())
		}
		return droppedAt
	}

	// Simulator style: pre-schedule the arrival, drain the queue.
	simAt := run(func(l *Loop, clk *clock.Virtual) {
		l.ScheduleArrival(req(0, arrival, slo))
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
	})

	// Driver style: only ticks live on the queue, and none until the
	// adapter injects the arrival when the clock passes its submission
	// instant (a parked loop's queue is empty).
	drvAt := run(func(l *Loop, clk *clock.Virtual) {
		arrived := false
		for l.Unfinished() > 0 || !arrived {
			next := l.NextEvent()
			if !arrived && (next == nil || arrival <= next.At) {
				clk.Advance(arrival)
				l.Arrive(req(0, 0, slo))
				arrived = true
				continue
			}
			if next == nil {
				t.Fatal("tick queue drained with the request unfinished")
			}
			ev := l.PopEvent()
			clk.Advance(ev.At)
			if err := l.Dispatch(ev); err != nil {
				t.Fatal(err)
			}
		}
	})

	if simAt != want || drvAt != want {
		t.Fatalf("drop boundaries diverged: simulator style %v, driver style %v, want %v", simAt, drvAt, want)
	}
}

// TestLenientModeCountsPlanRejections: without Strict, an invalid plan is
// counted and skipped — the serving loop must keep going. The request left
// unscheduled then expires through the normal drop policy.
func TestLenientModeCountsPlanRejections(t *testing.T) {
	clk := clock.NewVirtual()
	cfg := testConfig(brokenSched{})
	cfg.DropLateFactor = 1.0
	rejections := 0
	cfg.Hooks.PlanRejected = func(time.Duration, error) { rejections++ }
	l, err := New(cfg, clk)
	if err != nil {
		t.Fatal(err)
	}
	l.ScheduleArrival(req(0, 0, 500*time.Millisecond))
	for l.Unfinished() > 0 {
		ev := l.PopEvent()
		if ev == nil {
			t.Fatal("deadlock")
		}
		clk.Advance(ev.At)
		if err := l.Dispatch(ev); err != nil {
			t.Fatal(err)
		}
	}
	res := l.Finalize()
	if res.PlanRejected == 0 || rejections != res.PlanRejected {
		t.Fatalf("PlanRejected = %d (hook saw %d), want > 0 and equal", res.PlanRejected, rejections)
	}
	if len(res.Outcomes) != 1 || !res.Outcomes[0].Dropped {
		t.Fatalf("request should have expired after rejected plans: %+v", res.Outcomes)
	}
}

// TestStrictModeAborts: the simulator's oracle behavior — a scheduler bug
// panics instead of skewing experiment numbers.
func TestStrictModeAborts(t *testing.T) {
	clk := clock.NewVirtual()
	cfg := testConfig(brokenSched{})
	cfg.Strict = true
	l, err := New(cfg, clk)
	if err != nil {
		t.Fatal(err)
	}
	l.ScheduleArrival(req(0, 0, time.Second))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("strict loop accepted an invalid plan")
		}
		if !strings.Contains(r.(string), "invalid plan") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	for l.Unfinished() > 0 {
		ev := l.PopEvent()
		clk.Advance(ev.At)
		_ = l.Dispatch(ev)
	}
}

// soloSched is a round-based policy that starts the oldest pending request
// on GPU 0 for all of its remaining steps, flagged round-aligned — a block
// long enough to overrun τ and defer the next tick.
type soloSched struct{ tau time.Duration }

func (s soloSched) Name() string                 { return "solo" }
func (s soloSched) RoundDuration() time.Duration { return s.tau }
func (s soloSched) Plan(ctx *sched.PlanContext) []sched.Assignment {
	if len(ctx.Pending) == 0 || !ctx.Free.Has(0) {
		return nil
	}
	st := ctx.Pending[0]
	return []sched.Assignment{{
		Requests:     []workload.RequestID{st.Req.ID},
		Group:        simgpu.MaskOf(0),
		Steps:        st.Remaining,
		RoundAligned: true,
	}}
}

// TestIdleLoopParks pins the one idle rule: a tick that leaves nothing
// pending, nothing in flight and no staged resize queues no next tick, and
// an arrival or a resize re-arms the grid at its first point at or after the
// clock, strictly after the last fired tick, keeping any deferred phase.
func TestIdleLoopParks(t *testing.T) {
	const tau = 100 * time.Millisecond
	clk := clock.NewVirtual()
	cfg := testConfig(soloSched{tau: tau})
	var ticks []time.Duration
	cfg.Hooks.RoundTick = func(at, now time.Duration) { ticks = append(ticks, at) }
	var runEnd time.Duration
	cfg.Hooks.RunStarted = func(now time.Duration, run *engine.Run) { runEnd = run.End }
	l, err := New(cfg, clk)
	if err != nil {
		t.Fatal(err)
	}
	if ev := l.NextEvent(); ev != nil {
		t.Fatalf("a fresh loop queued %+v; want it parked", ev)
	}
	nextAt := func(want time.Duration) {
		t.Helper()
		if ev := l.NextEvent(); ev == nil || ev.At != want {
			t.Fatalf("at %v: next event %+v, want a tick at %v", clk.Now(), ev, want)
		}
	}
	// drainToPark dispatches events until the queue is empty.
	drainToPark := func() {
		t.Helper()
		for guard := 0; l.NextEvent() != nil; guard++ {
			if guard > 1000 {
				t.Fatal("loop never parked")
			}
			ev := l.PopEvent()
			clk.Advance(ev.At)
			if err := l.Dispatch(ev); err != nil {
				t.Fatal(err)
			}
		}
	}

	// A resize staged while parked arms the next boundary and lands there;
	// the tick then finds nothing to do and parks.
	clk.Advance(40 * time.Millisecond)
	l.ApplyResize(simgpu.MaskRange(0, 4))
	nextAt(tau)
	drainToPark()
	if got := l.Engine().Capacity(); got != simgpu.MaskRange(0, 4) {
		t.Fatalf("capacity = %v, want the resize staged while parked", got)
	}
	if l.Result().RoundTicks != 1 || ticks[0] != tau {
		t.Fatalf("ticks = %v (RoundTicks %d), want one at %v", ticks, l.Result().RoundTicks, tau)
	}

	// An arrival off the grid arms the first grid point at or after it.
	clk.Advance(250 * time.Millisecond)
	l.Arrive(req(1, 0, time.Hour))
	nextAt(3 * tau)
	drainToPark()
	deferred := ticks[len(ticks)-1]
	if deferred != runEnd+time.Microsecond || deferred <= 4*tau {
		t.Fatalf("ticks = %v, block ended %v: want the 4τ tick deferred past the overrun", ticks, runEnd)
	}

	// An arrival exactly on the just-fired (deferred) boundary arms the next
	// one, on the deferred phase.
	if clk.Now() != deferred {
		t.Fatalf("clock %v, want parked at the deferred tick %v", clk.Now(), deferred)
	}
	l.Arrive(req(2, 0, time.Hour))
	nextAt(deferred + tau)
	drainToPark()

	// Later re-arms keep whatever phase the last fired tick set.
	last := ticks[len(ticks)-1]
	clk.Advance(last + 5*tau/2)
	l.Arrive(req(3, 0, time.Hour))
	nextAt(last + 3*tau)
	drainToPark()
	if l.Unfinished() != 0 || len(l.Result().Outcomes) != 3 {
		t.Fatalf("unfinished %d, outcomes %d: want all three served", l.Unfinished(), len(l.Result().Outcomes))
	}
}

// TestLateDispatchStaysOnGrid: a busy loop reschedules each tick from the
// fired tick's own time, so dispatching late on the clock never drifts the
// grid — every fired boundary is origin + kτ.
func TestLateDispatchStaysOnGrid(t *testing.T) {
	const tau = time.Second
	clk := clock.NewVirtual()
	clk.Advance(300 * time.Millisecond) // the grid origin is the clock at New
	cfg := testConfig(idleSched{tau: tau})
	var ticks []time.Duration
	cfg.Hooks.RoundTick = func(at, now time.Duration) { ticks = append(ticks, at) }
	l, err := New(cfg, clk)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	l.Arrive(req(0, 0, time.Hour)) // never planned: the loop stays busy
	for i := 0; i < 20; i++ {
		ev := l.PopEvent()
		clk.Advance(ev.At + time.Duration(i%7)*97*time.Millisecond)
		if err := l.Dispatch(ev); err != nil {
			t.Fatal(err)
		}
	}
	for k, at := range ticks {
		if want := 300*time.Millisecond + time.Duration(k+1)*tau; at != want {
			t.Fatalf("tick %d fired at %v, want %v: the grid drifted (%v)", k, at, want, ticks)
		}
	}
}

// TestControlRoundTickZeroAlloc is the loop-side allocation guard: with the
// queue in steady state, one event dispatch — plan, engine start/finish,
// tracker bookkeeping, event recycling — must not allocate. The result
// accumulators (Outcomes, Runs and the run log's member IDs) grow by
// append; testing.AllocsPerRun truncates the mean to a whole number, so their
// amortized doubling averages to 0 over 2000 dispatches, while a per-event
// allocation anywhere in plan, engine or tracker bookkeeping still reads ≥ 1.
// This pins the arena/pooling work across eventq, engine, core and this
// package long before a regression is visible in benchmarks.
func TestControlRoundTickZeroAlloc(t *testing.T) {
	mdl := model.FLUX()
	topo := simgpu.H100x8()
	prof := costmodel.BuildProfile(costmodel.NewEstimator(mdl, topo), costmodel.ProfilerConfig{})
	clk := clock.NewVirtual()
	l, err := New(Config{
		Model:     mdl,
		Topo:      topo,
		Scheduler: core.NewScheduler(prof, topo, core.DefaultConfig()),
		Profile:   prof,
		Engine:    engine.DefaultConfig(),
	}, clk)
	if err != nil {
		t.Fatal(err)
	}
	resList := model.StandardResolutions()
	for i := 0; i < 64; i++ {
		l.Arrive(&workload.Request{
			ID:    workload.RequestID(i),
			Res:   resList[i%len(resList)],
			Steps: 1 << 20,
			SLO:   1000 * time.Hour,
		})
	}
	step := func() {
		ev := l.PopEvent()
		clk.Advance(ev.At)
		if err := l.Dispatch(ev); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2048; i++ {
		step() // reach scratch high-water marks before measuring
	}
	if avg := testing.AllocsPerRun(2000, step); avg != 0 {
		t.Fatalf("event dispatch allocates %.2f times per event, want 0", avg)
	}
}
