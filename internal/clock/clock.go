// Package clock abstracts time so that the same scheduling and engine code
// can run against a virtual (discrete-event) clock during experiments and a
// real wall clock inside the online serving daemon.
//
// All simulation time is represented as time.Duration offsets from a zero
// epoch. The virtual clock never sleeps: it is advanced explicitly by the
// discrete-event adapter in internal/sim. The real clock maps virtual
// durations onto wall time through a configurable speed-up factor so that
// the demo server can replay hardware-scale latencies quickly.
//
// internal/control's Loop — the round-based serving core shared by the
// simulator and the online driver — is parameterized over the Clock
// interface and never reads time any other way; injecting Virtual vs. Real
// is the entire difference in how time passes between the two worlds.
package clock

import (
	"sync/atomic"
	"time"
)

// Clock supplies the current time to schedulers and engines.
type Clock interface {
	// Now returns the current time as an offset from the clock's epoch.
	Now() time.Duration
}

// Sleeper is implemented by clocks that can block until a deadline.
// The virtual clock does not implement Sleeper; the event loop advances it.
type Sleeper interface {
	// SleepUntil blocks until the clock reads at least t.
	SleepUntil(t time.Duration)
}

// Virtual is a manually advanced clock for discrete-event simulation.
// The zero value is ready to use and reads 0.
//
// Virtual is safe for concurrent use, although the simulator advances it
// from a single goroutine; it holds no lock, so the Now on every event and
// probe costs one atomic load.
type Virtual struct {
	now atomic.Int64
}

// NewVirtual returns a virtual clock starting at 0.
func NewVirtual() *Virtual { return &Virtual{} }

// Now returns the current virtual time.
func (v *Virtual) Now() time.Duration {
	return time.Duration(v.now.Load())
}

// Advance moves the clock forward to t. Moving backwards is a programming
// error in the event loop and panics so it cannot corrupt causality silently.
func (v *Virtual) Advance(t time.Duration) {
	for {
		cur := v.now.Load()
		if int64(t) < cur {
			panic("clock: virtual time moved backwards")
		}
		if v.now.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// AdvanceBy moves the clock forward by d, which must be non-negative.
func (v *Virtual) AdvanceBy(d time.Duration) {
	if d < 0 {
		panic("clock: negative advance")
	}
	v.now.Add(int64(d))
}

// Real maps virtual time onto the wall clock. A Speedup of 10 means ten
// seconds of simulated GPU time elapse per wall-clock second, letting the
// demo server replay minute-scale experiments interactively.
type Real struct {
	epoch   time.Time
	speedup float64
}

// NewReal returns a real clock whose epoch is now. speedup must be positive;
// 1 replays in real time.
func NewReal(speedup float64) *Real {
	if speedup <= 0 {
		panic("clock: speedup must be positive")
	}
	return &Real{epoch: time.Now(), speedup: speedup}
}

// Now returns virtual time elapsed since the epoch.
func (r *Real) Now() time.Duration {
	wall := time.Since(r.epoch)
	return time.Duration(float64(wall) * r.speedup)
}

// SleepUntil blocks until virtual time t has been reached.
func (r *Real) SleepUntil(t time.Duration) {
	for {
		now := r.Now()
		if now >= t {
			return
		}
		wall := time.Duration(float64(t-now) / r.speedup)
		if wall < time.Millisecond {
			wall = time.Millisecond
		}
		time.Sleep(wall)
	}
}

var (
	_ Clock   = (*Virtual)(nil)
	_ Clock   = (*Real)(nil)
	_ Sleeper = (*Real)(nil)
)
