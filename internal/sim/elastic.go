package sim

// Elastic rebalancing for the sharded harness: a deterministic virtual-clock
// cadence of probe → decide → resize rounds over the shard loops. All state
// the decision consumes comes from read-only feasibility probes and the
// harness's own capacity ledger, so a re-run of the same configuration
// replays the exact same moves (the determinism argument DESIGN.md §14
// spells out: decision instants are fixed grid points of the virtual clock,
// probes are pure reads, the policy is a pure function, and the resulting
// ApplyResize calls land on each loop's round grid like any other event).

import (
	"math"
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/model"
	"tetriserve/internal/rebalance"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

// RebalanceConfig enables elastic GPU rebalancing between shards in
// RunSharded. Shards participating in rebalancing should be built on a
// common topology with ShardSpec.Capacity restricting each to its slice
// (capacity masks stay contiguous prefixes: donors give up their highest
// slot, receivers grow into their lowest free slot, so every intermediate
// capacity remains buddy-decomposable).
type RebalanceConfig struct {
	// Policy defaults to rebalance.New(rebalance.DefaultConfig()).
	Policy *rebalance.Policy
	// ProbeSLOScale scales the per-class SLO budgets the slack probes use
	// (default 1.5, matching the routed experiments' SLO policy).
	ProbeSLOScale float64
}

// rebalanceInterval is the virtual-time cadence of decision rounds.
const rebalanceInterval = 2 * time.Second

// RebalanceEvent records one applied GPU move for the result ledger.
type RebalanceEvent struct {
	At       time.Duration
	From, To int
	// Donated is the donor-side GPU slot given up; Received is the
	// receiver-side slot grown into (independent id spaces per shard).
	Donated, Received simgpu.Mask
}

// rebalancer holds the harness-side elastic state.
type rebalancer struct {
	policy *rebalance.Policy
	next   time.Duration

	loops []*control.Loop
	names []string
	// caps is the harness's capacity ledger: the latest REQUESTED mask per
	// shard. Loops apply resizes at their next round boundary, so the
	// engine's view may lag; decisions must chain off the requested state or
	// two decision rounds inside one τ would re-donate the same GPU.
	caps []simgpu.Mask
	// all is each shard's full topology mask, bounding growth.
	all []simgpu.Mask
	// classes are the probe classes per shard: the standard resolutions
	// its profile covers, each at its scaled SLO budget.
	classes [][]control.ProbeClass

	events []RebalanceEvent
	loads  []rebalance.ShardLoad // reused scratch
	feas   []control.Feasibility // reused scratch
}

func newRebalancer(cfg *RebalanceConfig, loops []*control.Loop, profs []*costmodel.Profile, names []string, alls []simgpu.Mask) *rebalancer {
	policy := cfg.Policy
	if policy == nil {
		policy = rebalance.New(rebalance.DefaultConfig())
	}
	probeRes := model.StandardResolutions()
	scale := cfg.ProbeSLOScale
	if scale <= 0 {
		scale = 1.5
	}
	slo := workload.NewSLOPolicy(scale)
	r := &rebalancer{
		policy:  policy,
		next:    rebalanceInterval,
		loops:   loops,
		names:   names,
		caps:    make([]simgpu.Mask, len(loops)),
		all:     alls,
		classes: make([][]control.ProbeClass, len(loops)),
		loads:   make([]rebalance.ShardLoad, len(loops)),
		feas:    make([]control.Feasibility, len(probeRes)),
	}
	for i, l := range loops {
		r.caps[i] = l.Engine().Capacity()
		for _, res := range probeRes {
			if profs[i].Has(res) { // the harness never extends a profile mid-run
				r.classes[i] = append(r.classes[i], control.ProbeClass{Res: res, SLO: slo.Budget(res)})
			}
		}
	}
	return r
}

// decide runs one probe → policy → resize round at virtual time now.
func (r *rebalancer) decide(now time.Duration) {
	for i, l := range r.loops {
		healthy := r.caps[i].Without(l.Engine().FailedGPUs()).Count()
		worst := time.Duration(math.MaxInt64)
		var queue float64
		feas := r.feas[:len(r.classes[i])]
		if err := l.ProbeClasses(r.classes[i], feas); err != nil {
			panic(err) // classes were filtered to the shard's profile
		}
		for _, f := range feas {
			queue = f.QueueGPUSeconds
			if f.Slack < worst {
				worst = f.Slack
			}
		}
		r.loads[i] = rebalance.ShardLoad{
			Name:            r.names[i],
			HealthyGPUs:     healthy,
			QueueGPUSeconds: queue,
			WorstSlack:      worst,
		}
	}
	for _, m := range r.policy.Decide(r.loads) {
		for g := 0; g < m.GPUs; g++ {
			donated := r.caps[m.From].Highest()
			received := r.all[m.To].Without(r.caps[m.To]).Lowest()
			if donated == 0 || received == 0 {
				break // donor empty or receiver at full topology
			}
			r.caps[m.From] = r.caps[m.From].Without(donated)
			r.caps[m.To] = r.caps[m.To].Union(received)
			r.loops[m.From].ApplyResize(r.caps[m.From])
			r.loops[m.To].ApplyResize(r.caps[m.To])
			r.events = append(r.events, RebalanceEvent{
				At: now, From: m.From, To: m.To, Donated: donated, Received: received,
			})
		}
	}
	r.next += rebalanceInterval
}
