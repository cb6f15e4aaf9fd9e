package server

// LiveRebalancer is the online counterpart of the sim harness's elastic
// rebalancer: a background loop that, on a fixed wall-clock cadence, probes
// every shard's feasibility, asks the rebalance policy for donate/receive
// moves, and applies them as capacity resizes. The policy and the probe
// signals are exactly those the deterministic simulator exercises — only the
// clock and the transport differ — so behavior validated under the oracle
// carries over to the live path.
//
// Shard GPU counts are tracked in a requested-count ledger, not read back
// from the shards: resizes land at each shard loop's next round boundary, so
// the applied view may lag, and chaining decisions off it could re-donate the
// same GPU. Capacity always stays a contiguous prefix of each shard's
// topology (ResizableShard.Resize semantics).

import (
	"fmt"
	"sync"
	"time"

	"tetriserve/internal/model"
	"tetriserve/internal/rebalance"
	"tetriserve/internal/workload"
)

// LiveRebalancerConfig configures the online elastic rebalancer.
type LiveRebalancerConfig struct {
	// Shards are the pools to balance; all must be resizable.
	Shards []ResizableShard
	// MaxGPUs caps each shard's growth (its topology size), parallel to
	// Shards.
	MaxGPUs []int
	// InitialGPUs seeds the requested-count ledger (each shard's starting
	// capacity), parallel to Shards.
	InitialGPUs []int
	// Policy defaults to rebalance.New(rebalance.DefaultConfig()).
	Policy *rebalance.Policy
	// Interval is the wall-clock decision cadence (default 10 s).
	Interval time.Duration
	// Logf receives move and error diagnostics (default: discarded).
	Logf func(format string, args ...any)
}

// LiveRebalancer runs the elastic control loop; build with NewLiveRebalancer,
// then Start/Stop.
type LiveRebalancer struct {
	cfg    LiveRebalancerConfig
	policy *rebalance.Policy
	slo    workload.SLOPolicy

	stop    chan struct{}
	stopped chan struct{}
	once    sync.Once

	mu      sync.Mutex
	counts  []int
	moves   int
	history []MoveRecord
}

// MoveRecord is one applied GPU move, kept in a bounded history ring for the
// fleet view.
type MoveRecord struct {
	// AtUnixMS is the wall-clock time the move was applied, in Unix
	// milliseconds.
	AtUnixMS int64  `json:"at_unix_ms"`
	From     string `json:"from"`
	To       string `json:"to"`
	// FromGPUs/ToGPUs are the post-move requested counts.
	FromGPUs int `json:"from_gpus"`
	ToGPUs   int `json:"to_gpus"`
}

// moveHistoryCap bounds the rebalance history retained for GET /v1/fleet.
const moveHistoryCap = 64

// probeSLOScale scales the per-class SLO budgets of the lateness-slack
// probes, one per standard resolution.
const probeSLOScale = 1.5

// NewLiveRebalancer validates the configuration and builds a rebalancer (not
// yet running).
func NewLiveRebalancer(cfg LiveRebalancerConfig) (*LiveRebalancer, error) {
	if len(cfg.Shards) < 2 {
		return nil, fmt.Errorf("server: rebalancer needs at least 2 shards")
	}
	if len(cfg.MaxGPUs) != len(cfg.Shards) || len(cfg.InitialGPUs) != len(cfg.Shards) {
		return nil, fmt.Errorf("server: MaxGPUs and InitialGPUs must parallel Shards")
	}
	for i := range cfg.Shards {
		if cfg.InitialGPUs[i] < 0 || cfg.InitialGPUs[i] > cfg.MaxGPUs[i] {
			return nil, fmt.Errorf("server: shard %d initial GPUs %d outside [0, %d]",
				i, cfg.InitialGPUs[i], cfg.MaxGPUs[i])
		}
	}
	policy := cfg.Policy
	if policy == nil {
		policy = rebalance.New(rebalance.DefaultConfig())
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Second
	}
	return &LiveRebalancer{
		cfg:     cfg,
		policy:  policy,
		slo:     workload.NewSLOPolicy(probeSLOScale),
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
		counts:  append([]int(nil), cfg.InitialGPUs...),
	}, nil
}

// Start launches the decision loop goroutine.
func (r *LiveRebalancer) Start() {
	go r.loop()
}

// Stop shuts the loop down and waits for it to exit (idempotent).
func (r *LiveRebalancer) Stop() {
	r.once.Do(func() { close(r.stop) })
	<-r.stopped
}

// Moves returns the number of applied GPU moves so far.
func (r *LiveRebalancer) Moves() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.moves
}

// Counts returns the current requested GPU counts per shard.
func (r *LiveRebalancer) Counts() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int(nil), r.counts...)
}

// History returns the most recent applied moves, oldest first (bounded to
// moveHistoryCap entries).
func (r *LiveRebalancer) History() []MoveRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]MoveRecord(nil), r.history...)
}

func (r *LiveRebalancer) loop() {
	defer close(r.stopped)
	tick := time.NewTicker(r.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
			r.decide()
		}
	}
}

// decide runs one probe → policy → resize round.
func (r *LiveRebalancer) decide() {
	loads := make([]rebalance.ShardLoad, len(r.cfg.Shards))
	r.mu.Lock()
	counts := append([]int(nil), r.counts...)
	r.mu.Unlock()
	for i, s := range r.cfg.Shards {
		worst := time.Duration(1<<63 - 1)
		var queue float64
		answered := false
		for _, res := range model.StandardResolutions() {
			f, err := s.ProbeFeasibility(res, 0, r.slo.Budget(res))
			if err != nil {
				continue // class not profiled on this shard, or shard unreachable
			}
			answered = true
			queue = f.QueueGPUSeconds
			if f.Slack < worst {
				worst = f.Slack
			}
		}
		// A shard that answered no probe would look idle — the ideal donor —
		// and its failing shrink would end every round. Zero healthy GPUs
		// makes it neither donor nor receiver while keeping indices stable.
		healthy := counts[i]
		if !answered {
			healthy = 0
		}
		loads[i] = rebalance.ShardLoad{
			Name:            s.Name(),
			HealthyGPUs:     healthy,
			QueueGPUSeconds: queue,
			WorstSlack:      worst,
		}
	}
	for _, m := range r.policy.Decide(loads) {
		for g := 0; g < m.GPUs; g++ {
			if counts[m.From] <= 0 || counts[m.To] >= r.cfg.MaxGPUs[m.To] {
				break
			}
			counts[m.From]--
			counts[m.To]++
			if err := r.cfg.Shards[m.From].Resize(counts[m.From]); err != nil {
				// Roll the ledger back: the donor still owns the GPU.
				counts[m.From]++
				counts[m.To]--
				r.logf("server: rebalance shrink %s failed: %v", loads[m.From].Name, err)
				break
			}
			if err := r.cfg.Shards[m.To].Resize(counts[m.To]); err != nil {
				// The donor already gave the GPU up; parking it donor-side
				// again keeps the ledger consistent with applied state.
				counts[m.To]--
				counts[m.From]++
				_ = r.cfg.Shards[m.From].Resize(counts[m.From])
				r.logf("server: rebalance grow %s failed: %v", loads[m.To].Name, err)
				break
			}
			r.mu.Lock()
			r.moves++
			r.history = append(r.history, MoveRecord{
				AtUnixMS: time.Now().UnixMilli(),
				From:     loads[m.From].Name,
				To:       loads[m.To].Name,
				FromGPUs: counts[m.From],
				ToGPUs:   counts[m.To],
			})
			if len(r.history) > moveHistoryCap {
				r.history = r.history[len(r.history)-moveHistoryCap:]
			}
			r.mu.Unlock()
			r.logf("server: rebalanced 1 GPU %s → %s (%d → %d GPUs)",
				loads[m.From].Name, loads[m.To].Name, counts[m.From], counts[m.To])
		}
	}
	r.mu.Lock()
	copy(r.counts, counts)
	r.mu.Unlock()
}

func (r *LiveRebalancer) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}
