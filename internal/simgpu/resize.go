package simgpu

import (
	"fmt"
	"math/bits"
	"time"
)

// Highest returns the mask of m's highest-id set GPU (0 when m is empty).
func (m Mask) Highest() Mask {
	if m == 0 {
		return 0
	}
	return Mask(1) << (63 - bits.LeadingZeros64(uint64(m)))
}

// Resize is a planned capacity change: at At, the shard's usable GPU set
// becomes exactly NewMask. Unlike a Fault, a resize is cooperative — the
// departing GPUs are healthy, so in-flight work on them is preempted with
// full step credit and latents are handed off (§5 re-transfer on the next
// placement) rather than lost. NewMask may both shrink and grow the shard in
// one event (a GPU swap).
type Resize struct {
	At      time.Duration
	NewMask Mask
}

// Validate checks the resize against a topology. An empty NewMask is legal
// only as a transient state for a donor shard that is about to receive
// capacity back; the control loop simply idles until capacity returns.
func (r Resize) Validate(t *Topology) error {
	if r.At < 0 {
		return fmt.Errorf("simgpu: resize has negative At %s", r.At)
	}
	if r.NewMask&^t.AllMask() != 0 {
		return fmt.Errorf("simgpu: resize mask %v outside node of %d GPUs", r.NewMask, t.N)
	}
	return nil
}
