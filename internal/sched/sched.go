// Package sched defines the scheduling contract shared by TetriServe and
// every baseline (fixed-SP xDiT, RSSP, EDF, exhaustive optimal), plus the
// placement machinery (buddy-aligned GPU group allocation) and the
// NP-hardness apparatus from the paper's appendices.
//
// A Scheduler observes the cluster through a PlanContext snapshot and emits
// Assignments: "run these steps of these requests on this GPU group". The
// simulator (internal/sim) and the live server (internal/server) both drive
// schedulers through this interface, so control-plane logic is identical
// offline and online.
package sched

import (
	"cmp"
	"fmt"
	"math/bits"
	"time"

	"tetriserve/internal/costmodel"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

// DegreeTally counts executed steps per sequence-parallel degree. Degrees are
// powers of two (≤ 64, the Mask width), so the tally is a flat array indexed
// by log2(degree) — a plain value with no heap footprint, unlike the map it
// replaced, so tracker entries stay allocation-free on the hot path.
type DegreeTally [7]int

// Add credits steps executed at the given power-of-two degree.
func (t *DegreeTally) Add(degree, steps int) {
	t[bits.TrailingZeros(uint(degree))] += steps
}

// Get returns the steps executed at the given power-of-two degree.
func (t *DegreeTally) Get(degree int) int {
	return t[bits.TrailingZeros(uint(degree))]
}

// Total returns the steps executed across all degrees.
func (t *DegreeTally) Total() int {
	n := 0
	for _, v := range t {
		n += v
	}
	return n
}

// RequestState is the scheduler-visible state of one request — what the
// paper's Request Tracker maintains (§3).
type RequestState struct {
	Req *workload.Request
	// Remaining is the number of denoising steps left.
	Remaining int
	// Late is the planner-owned record of the last "definitely late"
	// verdict. The control loop only reads it, to keep a request whose mark
	// holds in PlanContext.Late. It sits next to Remaining so a reuse check
	// reads one cache line per request.
	Late LateMark
	// Running reports whether an assignment for this request is executing.
	Running bool
	// LastGroup is the GPU set the request ran on most recently (0 before
	// the first step) — the input to placement preservation.
	LastGroup simgpu.Mask
	// StepsByDegree tallies executed steps per parallelism degree, feeding
	// the Figure 11 average-degree analysis.
	StepsByDegree DegreeTally
	// QualityUsed counts the steps already approximated via step caching;
	// QualityUsed never exceeds Req.QualityBudget.
	QualityUsed int
	// Started reports whether any step has executed.
	Started bool
}

// LateMark records the inputs a "definitely late" verdict was reached at:
// the profile and its version, the remaining steps, the judging instant and
// the deadline. With the cache dimension off the verdict is
// now + Remaining·T_min > Deadline, and while the profile, its version and
// Remaining stand still that sum only grows with now, so a planner may reuse
// the verdict at any later instant instead of judging again. The deadline
// is fixed once a request is admitted; keeping a copy here lets the planner
// rank late requests without loading the request. No mark's deadline
// precedes its request's arrival: a planner does not stamp a request whose
// SLO is negative, so a scan of late requests in arrival order may stop once
// arrivals pass the lowest deadline seen. The zero value records no verdict.
type LateMark struct {
	Prof      *costmodel.Profile
	Version   uint64
	Remaining int
	At        time.Duration
	Deadline  time.Duration
}

// LateHolds reports whether s's late mark was stamped under prof at its
// current version, for the current Remaining, no later than now: the mark's
// verdict then still holds, because now + Remaining·tmin can only have grown
// since. The planner reuses a held verdict instead of judging again, and the
// control loop keeps a request whose mark holds out of PlanContext.Pending.
func (s *RequestState) LateHolds(prof *costmodel.Profile, now time.Duration) bool {
	m := &s.Late
	return m.Prof == prof && m.Version == prof.Version() && m.Remaining == s.Remaining && now >= m.At
}

// ArrivalOrder is the pending order, (arrival, ID): a total order, so every
// request has one slot. Arrival order is part of the FIFO baselines'
// semantics; a requeued request must not jump ahead of earlier arrivals.
func ArrivalOrder(a, b *RequestState) int {
	if c := cmp.Compare(a.Req.Arrival, b.Req.Arrival); c != 0 {
		return c
	}
	return cmp.Compare(a.Req.ID, b.Req.ID)
}

// Clone returns a deep copy (used by solvers that explore hypotheticals).
func (s *RequestState) Clone() *RequestState {
	c := *s
	return &c
}

// Deadline is the request's absolute deadline.
func (s *RequestState) Deadline() time.Duration { return s.Req.Deadline() }

// DefinitelyLate reports whether the request cannot meet its deadline even
// at the fastest profiled per-step time starting from now.
func (s *RequestState) DefinitelyLate(now time.Duration, prof *costmodel.Profile) bool {
	tmin, _ := prof.MinStepTime(s.Req.Res)
	return now+time.Duration(s.Remaining)*tmin > s.Deadline()
}

// AvgDegree returns the steps-weighted mean parallelism degree so far.
func (s *RequestState) AvgDegree() float64 {
	steps, weighted := 0, 0
	for i, n := range s.StepsByDegree {
		steps += n
		weighted += (1 << i) * n
	}
	if steps == 0 {
		return 0
	}
	return float64(weighted) / float64(steps)
}

// CacheProtectedSteps is N, the shared protection zone: the first and last N
// effective steps of a request are never cache-approximated — early steps
// set global structure, late steps refine detail, and both degrade output
// quality disproportionately (the exemplar step-caching systems protect the
// same zones).
const CacheProtectedSteps = 4

// ApproxSteps returns how many of q consecutive steps run cache-approximated
// at interval c: step j of the block (0-based) executes fully iff j%c == 0.
// Interval ≤ 1 approximates nothing. This is the single quality-accounting
// function the planner, control loop, checker, and oracle all share — one
// definition, so their ledgers can never drift.
func ApproxSteps(q, c int) int {
	if c <= 1 || q <= 0 {
		return 0
	}
	return q - (q+c-1)/c
}

// Assignment instructs the engine to execute Steps denoising steps for each
// listed request on Group. Multiple requests form a selectively-batched
// step block and must share a resolution.
type Assignment struct {
	Requests []workload.RequestID
	Group    simgpu.Mask
	Steps    int
	// RoundAligned marks blocks sized to finish within the scheduler's
	// round; the simulator's round tick waits for aligned blocks only.
	RoundAligned bool
	// BestEffort marks the ≤1-GPU lane for already-late requests.
	BestEffort bool
	// CacheInterval c > 1 runs only every c-th step fully and approximates
	// the rest from cached features, discounting per-step cost by the
	// profile's CacheDiscount(c). 0 or 1 means no caching. Cached blocks are
	// single-request (approximation cadence is per-request state).
	CacheInterval int
}

// Validate checks structural sanity against a topology.
func (a *Assignment) Validate(topo *simgpu.Topology) error {
	if len(a.Requests) == 0 {
		return fmt.Errorf("sched: assignment with no requests")
	}
	if a.Steps <= 0 {
		return fmt.Errorf("sched: assignment with %d steps", a.Steps)
	}
	return topo.ValidGroup(a.Group)
}

// PlanContext is the snapshot a scheduler plans against.
type PlanContext struct {
	Now time.Duration
	// Free is the set of idle GPUs.
	Free simgpu.Mask
	// Capacity is the GPU set the shard currently owns (elastic serving may
	// resize it between rounds). Zero means the full topology. Free ⊆
	// Capacity always; planners that only carve groups out of Free need not
	// consult it. The invariant oracle checks it against its own capacity
	// ledger.
	Capacity simgpu.Mask
	// Pending and Late together list the requests with Remaining > 0 that
	// are not Running. The two are disjoint and each is sorted by
	// (arrival, ID) (ArrivalOrder).
	//
	// Pending holds the requests still to be judged. Late holds requests
	// whose late mark holds at Now (RequestState.LateHolds): a planner that
	// stamped the mark already found each one definitely late, and the
	// verdict still stands. LateDue[i] is Late[i].Late.Deadline, so a planner
	// can rank the late set by one sequential read per request. Only a
	// scheduler that stamps marks (core with caching off) can see Late
	// non-empty; every other scheduler finds all of its requests in Pending.
	// A hand-built context may leave Late empty and put every request in
	// Pending.
	//
	// All three may alias the caller's lists (the control loop passes its
	// own, not copies). Schedulers and observers must treat them as
	// read-only, and may read them only during Plan and the synchronous
	// PlanComputed/Planned hooks: dispatch removes the started requests from
	// those lists right after, shifting their elements in place.
	Pending []*RequestState
	Late    []*RequestState
	LateDue []time.Duration
	// Running lists requests currently executing.
	Running []*RequestState
	// Tracked optionally maps every request the caller tracks, pending or
	// running, to its state — the control loop passes its request tracker,
	// which lives across rounds. A caller that sets it guarantees Pending and
	// Late together hold exactly the tracked states that are not Running and
	// have steps left; PendingState then answers from it in O(1) instead of
	// scanning both. Read-only for schedulers and observers.
	Tracked map[workload.RequestID]*RequestState
	// Profile is the offline-profiled cost model.
	Profile *costmodel.Profile
	// Topo is the cluster topology.
	Topo *simgpu.Topology
}

// PendingState returns the state of the request with the given ID if it is
// in Pending or Late. With Tracked set it costs one map read, whatever the
// queue depth; hand-built contexts without it fall back to a scan of both.
func (c *PlanContext) PendingState(id workload.RequestID) (*RequestState, bool) {
	if c.Tracked != nil {
		st, ok := c.Tracked[id]
		if !ok || st.Running || st.Remaining <= 0 {
			return nil, false
		}
		return st, true
	}
	for _, list := range [2][]*RequestState{c.Pending, c.Late} {
		for _, st := range list {
			if st.Req.ID == id {
				return st, true
			}
		}
	}
	return nil, false
}

// Scheduler decides GPU allocations.
type Scheduler interface {
	// Name identifies the policy in reports ("TetriServe", "xDiT SP=4").
	Name() string
	// RoundDuration returns the fixed round length τ for round-based
	// policies, or 0 for purely event-driven policies (which are invoked
	// on every arrival and completion instead).
	RoundDuration() time.Duration
	// Plan returns assignments to start now. Returned assignments must use
	// disjoint subsets of ctx.Free and only requests from ctx.Pending or
	// ctx.Late.
	//
	// Ownership: the returned slice and the Requests slices inside it are
	// only guaranteed valid until the next Plan call on the same scheduler —
	// hot-path implementations reuse that storage. Callers retaining
	// assignments across planning rounds must copy them (the engine clones
	// Requests on Start).
	Plan(ctx *PlanContext) []Assignment
}

// ValidatePlan checks a plan against the context: free-GPU discipline,
// request membership, resolution-homogeneous batches. Both the simulator
// and the tests use it as an oracle against scheduler bugs.
func ValidatePlan(ctx *PlanContext, plan []Assignment) error {
	var c PlanChecker
	return c.Validate(ctx, plan)
}

// PlanChecker is a reusable ValidatePlan: it keeps its claimed-request set
// across calls (cleared, not reallocated) and resolves members through
// PlanContext.PendingState, so validating a plan on the control loop's hot
// path allocates nothing and costs the plan's size, not the queue's. The
// zero value is ready to use; not safe for concurrent use.
type PlanChecker struct {
	claimed map[workload.RequestID]bool
}

// Validate performs the same checks as ValidatePlan.
func (c *PlanChecker) Validate(ctx *PlanContext, plan []Assignment) error {
	if c.claimed == nil {
		c.claimed = make(map[workload.RequestID]bool)
	} else {
		clear(c.claimed)
	}
	claimed := c.claimed
	used := simgpu.Mask(0)
	for i := range plan {
		a := &plan[i]
		if err := a.Validate(ctx.Topo); err != nil {
			return err
		}
		if a.Group&^ctx.Free != 0 {
			return fmt.Errorf("sched: assignment %d uses busy GPUs %v", i, a.Group.Without(ctx.Free))
		}
		if used.Overlaps(a.Group) {
			return fmt.Errorf("sched: assignment %d overlaps another assignment on %v", i, a.Group)
		}
		used |= a.Group
		if c := a.CacheInterval; c > 1 && len(a.Requests) != 1 {
			return fmt.Errorf("sched: assignment %d caches at interval %d but batches %d requests", i, c, len(a.Requests))
		}
		var firstRes *RequestState
		for _, id := range a.Requests {
			st, ok := ctx.PendingState(id)
			if !ok {
				return fmt.Errorf("sched: assignment %d references unknown or running request %d", i, id)
			}
			if claimed[id] {
				return fmt.Errorf("sched: request %d appears in two assignments", id)
			}
			claimed[id] = true
			// A batched block may nominally exceed a member's remaining
			// steps (the member exits the batch early); single-request
			// assignments must not.
			if len(a.Requests) == 1 && a.Steps > st.Remaining {
				return fmt.Errorf("sched: request %d assigned %d steps but only %d remain", id, a.Steps, st.Remaining)
			}
			if c := a.CacheInterval; c > 1 {
				if used := st.QualityUsed + ApproxSteps(a.Steps, c); used > st.Req.QualityBudget {
					return fmt.Errorf("sched: request %d would approximate %d steps over budget %d",
						id, used, st.Req.QualityBudget)
				}
				total := st.Req.Steps - st.Req.SkippedSteps
				done := total - st.Remaining
				if done < CacheProtectedSteps || done+a.Steps > total-CacheProtectedSteps {
					return fmt.Errorf("sched: request %d cached block [%d,%d) enters the protected first/last %d steps of %d",
						id, done, done+a.Steps, CacheProtectedSteps, total)
				}
			}
			if firstRes == nil {
				firstRes = st
			} else if firstRes.Req.Res != st.Req.Res {
				return fmt.Errorf("sched: batched assignment %d mixes resolutions %v and %v",
					i, firstRes.Req.Res, st.Req.Res)
			}
		}
	}
	return nil
}
