package control

import (
	"testing"
	"time"

	"tetriserve/internal/clock"
)

// driveToEmpty drains the event queue until every request is finalized.
func driveToEmpty(t *testing.T, l *Loop, clk *clock.Virtual) {
	t.Helper()
	for guard := 0; l.Unfinished() > 0; guard++ {
		if guard > 100_000 {
			t.Fatal("loop did not converge")
		}
		ev := l.NextEvent()
		if ev == nil {
			t.Fatalf("deadlock: %d unfinished, no events", l.Unfinished())
		}
		clk.Advance(ev.At)
		if err := l.Dispatch(l.PopEvent()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDropBoundaryExactTick pins the off-by-one at the drop boundary: a
// request whose drop limit falls exactly ON a round tick is still in budget
// at that tick (pastDrop is strictly ">") and expires only at the NEXT tick.
// An inconsistent boundary (">=" at either site) drops it one full round
// early.
func TestDropBoundaryExactTick(t *testing.T) {
	const tau = time.Second

	run := func(slo time.Duration, factor float64) (droppedAt time.Duration, cause DropCause) {
		clk := clock.NewVirtual()
		cfg := testConfig(idleSched{tau: tau})
		cfg.DropLateFactor = factor
		droppedAt = -1
		cfg.Hooks.Dropped = func(now time.Duration, o Outcome) {
			droppedAt, cause = now, o.Cause
		}
		l, err := New(cfg, clk)
		if err != nil {
			t.Fatal(err)
		}
		r := req(1, 0, slo)
		l.ScheduleArrival(r)
		driveToEmpty(t, l, clk)
		return droppedAt, cause
	}

	// Limit = 500ms × 2.0 = exactly the 1 s tick: in budget at 1 s, expired
	// at 2 s.
	at, cause := run(500*time.Millisecond, 2.0)
	if at != 2*tau {
		t.Fatalf("limit-on-tick request dropped at %v, want %v (the tick AFTER the limit)", at, 2*tau)
	}
	if cause != DropExpired {
		t.Fatalf("cause = %v, want DropExpired", cause)
	}

	// Limit = 499ms × 2.0 = 998 ms, strictly before the tick: expired at 1 s.
	if at, _ := run(499*time.Millisecond, 2.0); at != tau {
		t.Fatalf("limit-before-tick request dropped at %v, want %v", at, tau)
	}
}

// TestDropLimitAccessorMatchesLoop pins DropLimit as the single boundary
// authority shared by expiry (pastDrop) and delivery (finish).
func TestDropLimitAccessorMatchesLoop(t *testing.T) {
	clk := clock.NewVirtual()
	cfg := testConfig(idleSched{tau: time.Second})
	cfg.DropLateFactor = 4.0
	l, err := New(cfg, clk)
	if err != nil {
		t.Fatal(err)
	}
	r := req(7, 250*time.Millisecond, 2*time.Second)
	if got, want := l.DropLimit(r), 250*time.Millisecond+8*time.Second; got != want {
		t.Fatalf("DropLimit = %v, want %v", got, want)
	}
}
