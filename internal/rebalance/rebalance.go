// Package rebalance is the fleet's elastic-capacity tier: one decision round
// that probes every shard, picks at most one GPU move from the answers, and
// applies it to a requested-GPU-count ledger. The sharded simulator
// (sim.RunSharded) and the live rebalancer (server.LiveRebalancer) both run
// this round; they differ only in the clock that paces it and in how a probe
// or a resize reaches a shard.
//
// The policy has no knobs. A donor keeps at least one GPU, only a shard
// projected late on some probed class may receive, and a move must close at
// least two seconds of drain-time imbalance without swapping who is
// overloaded. It is a pure function of the probes, so the simulator replays
// rebalancing bit-identically and the live rebalancer is auditable from its
// logs.
//
// Capacity stays a contiguous prefix of each shard's topology: a resize to n
// GPUs means "own GPUs 0..n-1", which keeps every intermediate capacity
// buddy-decomposable. A resize lands at the shard loop's next round boundary
// (engine.Resize: full step credit and latent handoff), so the applied
// capacity may lag the ledger; rounds chain off the ledger, or two rounds
// inside one τ would re-donate the same GPU.
package rebalance

import (
	"fmt"
	"math"
	"sync"
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/model"
	"tetriserve/internal/workload"
)

// Policy constants: one value each in use (DESIGN §6).
const (
	minGPUs  = 1   // a donor never drops below this many GPUs
	drainGap = 2.0 // seconds of drain imbalance a move must close
)

// defaultProbeSLOScale scales the per-class SLO budgets of a round's probes
// when the caller sets no scale of its own.
const defaultProbeSLOScale = 1.5

// shardLoad is one shard's probed state in a round.
type shardLoad struct {
	// HealthyGPUs is the shard's ledger count, or 0 when it answered no
	// probe — the denominator of the drain estimate.
	HealthyGPUs int
	// QueueGPUSeconds is the backlog's cheapest-possible GPU·seconds
	// (Feasibility.QueueGPUSeconds).
	QueueGPUSeconds float64
	// WorstSlack is the most pessimistic slack across the probed classes
	// (negative: the shard is projected late even under best-case packing).
	WorstSlack time.Duration
}

// load folds a shard's answered probes into its shardLoad. A shard that
// answered none would look idle — the ideal donor — and its failing shrink
// would end every round; counting it as 0 GPUs makes it neither donor nor
// receiver while keeping indices stable.
func load(gpus int, probes []control.Feasibility) shardLoad {
	l := shardLoad{WorstSlack: math.MaxInt64}
	if len(probes) == 0 {
		return l
	}
	l.HealthyGPUs = gpus
	for _, f := range probes {
		l.QueueGPUSeconds = f.QueueGPUSeconds
		l.WorstSlack = min(l.WorstSlack, f.Slack)
	}
	return l
}

// Move is one GPU handed from shard From to shard To (indices into the
// round's shards). FromGPUs and ToGPUs are the post-move ledger counts; Round
// fills them.
type Move struct {
	From, To         int
	FromGPUs, ToGPUs int
}

// drain is the fluid-model time for a shard to clear its backlog on healthy
// GPUs. A shard with work but no devices drains never; an idle shard drains
// instantly.
func drain(queueGPUSeconds float64, healthy int) float64 {
	if healthy <= 0 {
		if queueGPUSeconds > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return queueGPUSeconds / float64(healthy)
}

// decide picks the round's move, if any: from the shard with the least drain
// time that may donate, to the late shard with the most. Identical loads
// yield the identical move; ties break toward the lowest shard index. ok is
// false when the fleet is balanced within the drain gap or no legal donor or
// receiver exists.
func decide(loads []shardLoad) (m Move, ok bool) {
	donor, receiver := -1, -1
	var donorDrain, recvDrain float64
	for i, l := range loads {
		d := drain(l.QueueGPUSeconds, l.HealthyGPUs)
		if l.WorstSlack < 0 && (receiver < 0 || d > recvDrain) {
			receiver, recvDrain = i, d
		}
		if l.HealthyGPUs > minGPUs && (donor < 0 || d < donorDrain) {
			donor, donorDrain = i, d
		}
	}
	if donor < 0 || receiver < 0 || donor == receiver {
		return Move{}, false
	}
	if math.IsInf(recvDrain, 1) {
		recvDrain = math.MaxFloat64
	}
	if recvDrain-donorDrain < drainGap {
		return Move{}, false
	}
	d := loads[donor]
	if drain(d.QueueGPUSeconds, d.HealthyGPUs-1) > recvDrain {
		return Move{}, false // the move would just swap who is overloaded
	}
	return Move{From: donor, To: receiver}, true
}

// Probes returns the classes a round probes on every shard: each standard
// resolution at its SLO budget scaled by sloScale (≤ 0 means 1.5).
func Probes(sloScale float64) []control.ProbeClass {
	if sloScale <= 0 {
		sloScale = defaultProbeSLOScale
	}
	slo := workload.NewSLOPolicy(sloScale)
	var classes []control.ProbeClass
	for _, res := range model.StandardResolutions() {
		classes = append(classes, control.ProbeClass{Res: res, SLO: slo.Budget(res)})
	}
	return classes
}

// Ledger is the requested GPU count of each shard, capped by its topology.
// Only Round writes it; Counts may be read from any goroutine.
type Ledger struct {
	mu     sync.Mutex
	counts []int
	caps   []int
	loads  []shardLoad // reused scratch
}

// NewLedger seeds a ledger with each shard's starting count and its
// topology cap.
func NewLedger(initial, caps []int) (*Ledger, error) {
	if len(initial) != len(caps) {
		return nil, fmt.Errorf("rebalance: %d initial counts for %d caps", len(initial), len(caps))
	}
	for i := range initial {
		if initial[i] < 0 || initial[i] > caps[i] {
			return nil, fmt.Errorf("rebalance: shard %d initial GPUs %d outside [0, %d]", i, initial[i], caps[i])
		}
	}
	return &Ledger{
		counts: append([]int(nil), initial...),
		caps:   append([]int(nil), caps...),
		loads:  make([]shardLoad, len(initial)),
	}, nil
}

// Counts returns a copy of the requested GPU counts.
func (l *Ledger) Counts() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int(nil), l.counts...)
}

// Round runs one probe → decide → resize round. probe(i) returns shard i's
// answered probes (read before the next call); resize(i, n) asks shard i to
// own exactly its lowest n GPUs. A move toward a shard already at its
// topology cap is not made. A failed shrink leaves every shard and the ledger
// as they were; a failed grow hands the GPU back to the donor. Either failure
// returns the error and no move.
func (l *Ledger) Round(probe func(i int) []control.Feasibility, resize func(i, n int) error) (Move, bool, error) {
	for i := range l.loads {
		l.loads[i] = load(l.counts[i], probe(i))
	}
	m, ok := decide(l.loads)
	if !ok || l.counts[m.To] >= l.caps[m.To] {
		return Move{}, false, nil
	}
	m.FromGPUs, m.ToGPUs = l.counts[m.From]-1, l.counts[m.To]+1
	if err := resize(m.From, m.FromGPUs); err != nil {
		return Move{}, false, fmt.Errorf("rebalance: shrink shard %d: %w", m.From, err)
	}
	if err := resize(m.To, m.ToGPUs); err != nil {
		// Re-park the GPU on the donor so the applied state matches the
		// unchanged ledger again; the grow failure is the one worth reporting.
		_ = resize(m.From, l.counts[m.From])
		return Move{}, false, fmt.Errorf("rebalance: grow shard %d: %w", m.To, err)
	}
	l.mu.Lock()
	l.counts[m.From], l.counts[m.To] = m.FromGPUs, m.ToGPUs
	l.mu.Unlock()
	return m, true, nil
}
