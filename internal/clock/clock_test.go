package clock

import (
	"testing"
	"time"
)

func TestVirtualStartsAtZero(t *testing.T) {
	v := NewVirtual()
	if got := v.Now(); got != 0 {
		t.Fatalf("new virtual clock reads %v, want 0", got)
	}
}

func TestVirtualAdvance(t *testing.T) {
	v := NewVirtual()
	v.Advance(5 * time.Second)
	if got := v.Now(); got != 5*time.Second {
		t.Fatalf("Now() = %v, want 5s", got)
	}
	v.Advance(5 * time.Second) // advancing to the same time is allowed
	if got := v.Now(); got != 5*time.Second {
		t.Fatalf("Now() = %v after no-op advance, want 5s", got)
	}
}

func TestVirtualAdvanceBy(t *testing.T) {
	v := NewVirtual()
	v.AdvanceBy(time.Second)
	v.AdvanceBy(2 * time.Second)
	if got := v.Now(); got != 3*time.Second {
		t.Fatalf("Now() = %v, want 3s", got)
	}
}

func TestVirtualBackwardsPanics(t *testing.T) {
	v := NewVirtual()
	v.Advance(10 * time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("advancing backwards should panic")
		}
	}()
	v.Advance(9 * time.Second)
}

func TestVirtualNegativeAdvanceByPanics(t *testing.T) {
	v := NewVirtual()
	defer func() {
		if recover() == nil {
			t.Fatal("negative AdvanceBy should panic")
		}
	}()
	v.AdvanceBy(-time.Second)
}

func TestVirtualConcurrentReads(t *testing.T) {
	v := NewVirtual()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			v.AdvanceBy(time.Millisecond)
		}
		close(done)
	}()
	for {
		select {
		case <-done:
			if got := v.Now(); got != time.Second {
				t.Fatalf("Now() = %v, want 1s", got)
			}
			return
		default:
			_ = v.Now() // must not race (run with -race)
		}
	}
}

// A reader racing Advance never sees time run backwards: the clock holds no
// lock, so monotonicity rests on Advance's compare-and-swap alone.
func TestVirtualConcurrentAdvanceMonotone(t *testing.T) {
	v := NewVirtual()
	done := make(chan struct{})
	go func() {
		for i := 1; i <= 1000; i++ {
			v.Advance(time.Duration(i) * time.Millisecond)
		}
		close(done)
	}()
	var last time.Duration
	for {
		now := v.Now()
		if now < last {
			t.Fatalf("Now() went backwards: %v after %v", now, last)
		}
		last = now
		select {
		case <-done:
			if got := v.Now(); got != time.Second {
				t.Fatalf("Now() = %v, want 1s", got)
			}
			return
		default:
		}
	}
}

func TestRealSpeedup(t *testing.T) {
	r := NewReal(100)
	time.Sleep(20 * time.Millisecond)
	got := r.Now()
	// 20ms wall at 100x should read ≈2s virtual; allow generous slack for
	// scheduler jitter on loaded CI machines.
	if got < 1*time.Second || got > 20*time.Second {
		t.Fatalf("virtual time %v out of plausible range for 20ms wall at 100x", got)
	}
}

func TestRealSleepUntil(t *testing.T) {
	r := NewReal(1000)
	target := r.Now() + 2*time.Second // 2ms wall
	start := time.Now()
	r.SleepUntil(target)
	if r.Now() < target {
		t.Fatal("SleepUntil returned before target virtual time")
	}
	if wall := time.Since(start); wall > time.Second {
		t.Fatalf("SleepUntil slept %v wall time for a 2ms-equivalent wait", wall)
	}
}

func TestRealInvalidSpeedupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero speedup should panic")
		}
	}()
	NewReal(0)
}
