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

	run := func(perpetual bool, drive func(l *Loop, clk *clock.Virtual)) time.Duration {
		clk := clock.NewVirtual()
		cfg := testConfig(idleSched{tau: time.Second})
		cfg.DropLateFactor = factor
		cfg.Perpetual = perpetual
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
	simAt := run(false, func(l *Loop, clk *clock.Virtual) {
		l.ScheduleArrival(req(0, arrival, slo))
		l.Begin()
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

	// Driver style: only ticks live on the queue; the arrival is injected
	// by the adapter when the clock passes its submission instant.
	drvAt := run(true, func(l *Loop, clk *clock.Virtual) {
		l.Begin()
		arrived := false
		for l.Unfinished() > 0 || !arrived {
			next := l.NextEvent()
			if next == nil {
				t.Fatal("tick queue drained unexpectedly")
			}
			if !arrived && arrival <= next.At {
				clk.Advance(arrival)
				l.Arrive(req(0, 0, slo))
				arrived = true
				continue
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
	l.Begin()
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
	l.Begin()
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

// TestPerpetualTicks: a live serving loop keeps its τ grid alive with no
// requests outstanding; the simulator's grid stops once the trace drains.
func TestPerpetualTicks(t *testing.T) {
	for _, tc := range []struct {
		name      string
		perpetual bool
		wantNext  bool
	}{
		{"perpetual", true, true},
		{"draining", false, false},
	} {
		clk := clock.NewVirtual()
		cfg := testConfig(idleSched{tau: time.Second})
		cfg.Perpetual = tc.perpetual
		l, err := New(cfg, clk)
		if err != nil {
			t.Fatal(err)
		}
		l.Begin()
		ev := l.PopEvent()
		clk.Advance(ev.At)
		if err := l.Dispatch(ev); err != nil {
			t.Fatal(err)
		}
		if got := l.NextEvent() != nil; got != tc.wantNext {
			t.Fatalf("%s: next tick scheduled = %v, want %v", tc.name, got, tc.wantNext)
		}
		if l.Result().RoundTicks != 1 {
			t.Fatalf("%s: RoundTicks = %d, want 1", tc.name, l.Result().RoundTicks)
		}
	}
}

// TestControlRoundTickZeroAlloc is the loop-side allocation guard: with the
// queue in steady state, one event dispatch — plan, engine start/finish,
// tracker bookkeeping, event recycling — must not allocate. The result
// accumulators (Outcomes, Runs, PlanLatencies, the run-record arena) grow by
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
		Perpetual: true,
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
	l.Begin()
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
