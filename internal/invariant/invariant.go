// Package invariant is the schedule-invariant oracle: an observer that
// validates every plan and every execution transition the control plane
// produces against the properties the paper argues for (§4–§5, Appendix B),
// independently of the scheduler under test.
//
// The oracle is double-entry bookkeeping. internal/engine already tracks
// free masks, latent placement, and remaining steps; the oracle re-derives
// all of that state from nothing but the control.Hooks transition stream and
// cross-checks the two ledgers at every step. A scheduler or engine bug that
// corrupts one ledger therefore surfaces as a divergence instead of skewing
// experiment numbers silently.
//
// Invariants checked (DESIGN.md §10 maps each to its paper section):
//
//   - capacity: every plan's groups are pairwise disjoint, within the node,
//     and sum to at most N GPUs; no device is double-booked across in-flight
//     blocks.
//   - legality: every group is a valid sequence-parallel group for the
//     topology (non-empty, power-of-two size, inside the node).
//   - idle-only dispatch: plans draw only from GPUs that are neither busy
//     nor failed — elastic scale-up and work-conserving admission included.
//   - membership: assignments reference only known, pending, not-yet-running
//     requests, each at most once, with positive step counts that do not
//     exceed a lone request's remaining steps; every plan's pending lists
//     (Pending and Late) are disjoint, sorted and exactly the ledger's
//     waiting requests, and every Late mark holds.
//   - SLO-safe batching: a continuous-batching merge never violates any
//     member's survival test at the next round boundary (§5).
//   - cost-model consistency: a block's projected finish time equals
//     start + overhead + steps x realized step time, and the realized step
//     time stays within the jitter envelope of the profiled nominal (§5).
//   - placement accounting: a request resumes on its previous GPU set unless
//     the planner explicitly migrated it; every migration is paid for —
//     observed migrations must equal the engine's remap counter exactly.
//   - conservation: admitted requests are finalized exactly once, remaining
//     step counts never go negative, and all GPUs drain back to idle.
package invariant

import (
	"fmt"
	"time"

	"tetriserve/internal/sched"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

// Violation is one observed breach of a scheduling invariant.
type Violation struct {
	// At is the control-plane time of the offending transition.
	At time.Duration
	// Rule names the invariant ("capacity", "batch-survival", ...).
	Rule string
	// Detail is a human-readable description with the offending values.
	Detail string
}

// Error renders the violation as an error string.
func (v Violation) Error() string {
	return fmt.Sprintf("invariant[%s] at %s: %s", v.Rule, v.At, v.Detail)
}

// Rule names, exported so tests can assert which invariant tripped.
const (
	RuleCapacity     = "capacity"   // free-mask discipline, disjointness, N bound
	RuleLegality     = "legality"   // topology-legal groups
	RuleMembership   = "membership" // request membership and step counts
	RuleBatch        = "batch"      // resolution-homogeneous batches
	RuleSurvival     = "batch-survival"
	RuleCostModel    = "cost-model"   // projected finish vs profile
	RulePlacement    = "placement"    // migration accounting
	RuleConservation = "conservation" // request/GPU bookkeeping drains
	RuleOutcome      = "outcome"      // outcome self-consistency
	RuleQuality      = "quality"      // step-cache budget and protection zone
)

// CheckPlan validates one plan against the snapshot it was produced from:
// GPU capacity and free-mask discipline, group legality, membership, batch
// homogeneity, and — for round-based schedulers (tau > 0) — the §5 batching
// survival test for every member of every merged block. It subsumes
// sched.ValidatePlan and returns every violation found (nil when clean), so
// fuzz harnesses can report all breaches of a generated plan at once.
func CheckPlan(ctx *sched.PlanContext, plan []sched.Assignment, tau time.Duration) []Violation {
	var vs []Violation
	add := func(rule, format string, args ...any) {
		vs = append(vs, Violation{At: ctx.Now, Rule: rule, Detail: fmt.Sprintf(format, args...)})
	}

	pending := make(map[workload.RequestID]*sched.RequestState, len(ctx.Pending)+len(ctx.Late))
	for _, list := range [2][]*sched.RequestState{ctx.Pending, ctx.Late} {
		for _, st := range list {
			pending[st.Req.ID] = st
		}
	}
	if ctx.Free&^ctx.Topo.AllMask() != 0 {
		add(RuleCapacity, "free mask %v exceeds the %d-GPU node", ctx.Free, ctx.Topo.N)
	}

	used := simgpu.Mask(0)
	claimed := make(map[workload.RequestID]int)
	tNext := ctx.Now + tau
	for i := range plan {
		a := &plan[i]
		if err := a.Validate(ctx.Topo); err != nil {
			add(RuleLegality, "assignment %d: %v", i, err)
			continue
		}
		if a.Group&^ctx.Free != 0 {
			add(RuleCapacity, "assignment %d group %v uses non-idle GPUs %v (free=%v)",
				i, a.Group, a.Group.Without(ctx.Free), ctx.Free)
		}
		if used.Overlaps(a.Group) {
			add(RuleCapacity, "assignment %d group %v double-books GPUs %v already granted this plan",
				i, a.Group, a.Group&used)
		}
		used |= a.Group

		// Step-cache legality (§4.2 cache dimension): cache-assisted blocks
		// serve one request (approximated steps cannot be shared across batch
		// members), stay within the request's quality budget under the same
		// ApproxSteps accounting the control loop credits with, and never
		// touch the protected first/last CacheProtectedSteps steps.
		if a.CacheInterval > 1 {
			if len(a.Requests) != 1 {
				add(RuleQuality, "assignment %d caches at interval %d with %d batched requests",
					i, a.CacheInterval, len(a.Requests))
			} else if st, ok := pending[a.Requests[0]]; ok {
				apx := sched.ApproxSteps(a.Steps, a.CacheInterval)
				if st.QualityUsed+apx > st.Req.QualityBudget {
					add(RuleQuality, "request %d cached block approximates %d steps with %d/%d budget used",
						a.Requests[0], apx, st.QualityUsed, st.Req.QualityBudget)
				}
				total := st.Req.Steps - st.Req.SkippedSteps
				done := total - st.Remaining
				if done < sched.CacheProtectedSteps || done+a.Steps > total-sched.CacheProtectedSteps {
					add(RuleQuality, "request %d cached block [%d,%d) enters the protected zone (total %d, protect %d)",
						a.Requests[0], done, done+a.Steps, total, sched.CacheProtectedSteps)
				}
			}
		}

		var first *sched.RequestState
		for _, id := range a.Requests {
			st, ok := pending[id]
			if !ok {
				add(RuleMembership, "assignment %d references unknown or running request %d", i, id)
				continue
			}
			if prev, dup := claimed[id]; dup {
				add(RuleMembership, "request %d claimed by assignments %d and %d", id, prev, i)
			}
			claimed[id] = i
			if len(a.Requests) == 1 && a.Steps > st.Remaining {
				add(RuleMembership, "request %d assigned %d steps with only %d remaining", id, a.Steps, st.Remaining)
			}
			if first == nil {
				first = st
			} else if first.Req.Res != st.Req.Res {
				add(RuleBatch, "assignment %d batches resolutions %v and %v", i, first.Req.Res, st.Req.Res)
			}
			// SLO-safe continuous batching (§5): joining a batch must keep
			// every member not-definitely-late at the next round boundary.
			// Best-effort blocks carry already-late requests and are exempt;
			// event-driven schedulers (tau == 0) never batch through this
			// mechanism, so the test is skipped for them.
			if len(a.Requests) > 1 && !a.BestEffort && tau > 0 {
				steps := a.Steps
				if steps > st.Remaining {
					steps = st.Remaining
				}
				after := st.Remaining - steps
				tmin, _ := ctx.Profile.MinStepTime(st.Req.Res)
				if tNext+time.Duration(after)*tmin > st.Deadline() {
					add(RuleSurvival,
						"request %d joins a %d-wide batch but misses survival: next round %s + %d steps x %s > deadline %s",
						id, len(a.Requests), tNext, after, tmin, st.Deadline())
				}
			}
		}
	}
	if used.Count() > ctx.Topo.N {
		add(RuleCapacity, "plan grants %d GPUs on a %d-GPU node", used.Count(), ctx.Topo.N)
	}
	return vs
}
