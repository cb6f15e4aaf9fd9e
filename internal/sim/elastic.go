package sim

// Elastic rebalancing for the sharded harness: rebalance.Ledger rounds on a
// fixed virtual-clock cadence over the shard loops. Decision instants are
// fixed grid points of the virtual clock, probes are pure reads, the policy
// is a pure function, and the resulting ApplyResize calls land on each loop's
// round grid like any other event, so a re-run of the same configuration
// replays the exact same moves (DESIGN.md §14).

import (
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/rebalance"
	"tetriserve/internal/simgpu"
)

// RebalanceConfig enables elastic GPU rebalancing between shards in
// RunSharded. Shards participating in rebalancing should be built on a
// common topology with ShardSpec.Capacity restricting each to a prefix of it
// (GPUs 0..n-1), so growing a shard never changes its profile.
type RebalanceConfig struct {
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
	ledger *rebalance.Ledger
	next   time.Duration
	loops  []*control.Loop
	// classes are the probe classes per shard: the round's classes its
	// profile covers.
	classes [][]control.ProbeClass

	events []RebalanceEvent
	feas   []control.Feasibility // reused scratch
}

func newRebalancer(cfg *RebalanceConfig, loops []*control.Loop, profs []*costmodel.Profile, caps []int) (*rebalancer, error) {
	initial := make([]int, len(loops))
	for i, l := range loops {
		initial[i] = l.Engine().Capacity().Count()
	}
	ledger, err := rebalance.NewLedger(initial, caps)
	if err != nil {
		return nil, err
	}
	probes := rebalance.Probes(cfg.ProbeSLOScale)
	r := &rebalancer{
		ledger:  ledger,
		next:    rebalanceInterval,
		loops:   loops,
		classes: make([][]control.ProbeClass, len(loops)),
		feas:    make([]control.Feasibility, len(probes)),
	}
	for i := range loops {
		for _, c := range probes {
			if profs[i].Has(c.Res) { // the harness never extends a profile mid-run
				r.classes[i] = append(r.classes[i], c)
			}
		}
	}
	return r, nil
}

// decide runs one rebalance round at virtual time now.
func (r *rebalancer) decide(now time.Duration) {
	// resize never fails, so neither does the round.
	if m, ok, _ := r.ledger.Round(r.probe, r.resize); ok {
		r.events = append(r.events, RebalanceEvent{
			At: now, From: m.From, To: m.To,
			Donated:  simgpu.MaskRange(simgpu.GPUID(m.FromGPUs), 1),
			Received: simgpu.MaskRange(simgpu.GPUID(m.ToGPUs-1), 1),
		})
	}
	r.next += rebalanceInterval
}

func (r *rebalancer) probe(i int) []control.Feasibility {
	feas := r.feas[:len(r.classes[i])]
	if err := r.loops[i].ProbeClasses(r.classes[i], feas); err != nil {
		panic(err) // classes were filtered to the shard's profile
	}
	return feas
}

func (r *rebalancer) resize(i, n int) error {
	r.loops[i].ApplyResize(simgpu.MaskRange(0, n))
	return nil
}
