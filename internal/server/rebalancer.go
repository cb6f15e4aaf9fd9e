package server

// LiveRebalancer is the online caller of the fleet's rebalance round
// (rebalance.Ledger.Round), the same round the sim harness runs: on a fixed
// wall-clock cadence it probes every shard, lets the policy pick a move, and
// applies it as capacity resizes. Only the clock and the transport differ
// from the simulator, so behavior validated under the oracle carries over to
// the live path.

import (
	"fmt"
	"sync"
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/rebalance"
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
	// Interval is the wall-clock decision cadence (default 10 s).
	Interval time.Duration
	// Logf receives move and error diagnostics (default: discarded).
	Logf func(format string, args ...any)
}

// LiveRebalancer runs the elastic control loop; build with NewLiveRebalancer,
// then Start/Stop.
type LiveRebalancer struct {
	cfg     LiveRebalancerConfig
	ledger  *rebalance.Ledger
	classes []control.ProbeClass

	stop    chan struct{}
	stopped chan struct{}
	once    sync.Once

	mu      sync.Mutex
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

// NewLiveRebalancer validates the configuration and builds a rebalancer (not
// yet running).
func NewLiveRebalancer(cfg LiveRebalancerConfig) (*LiveRebalancer, error) {
	if len(cfg.Shards) < 2 {
		return nil, fmt.Errorf("server: rebalancer needs at least 2 shards")
	}
	if len(cfg.MaxGPUs) != len(cfg.Shards) || len(cfg.InitialGPUs) != len(cfg.Shards) {
		return nil, fmt.Errorf("server: MaxGPUs and InitialGPUs must parallel Shards")
	}
	ledger, err := rebalance.NewLedger(cfg.InitialGPUs, cfg.MaxGPUs)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Second
	}
	return &LiveRebalancer{
		cfg:     cfg,
		ledger:  ledger,
		classes: rebalance.Probes(0),
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
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
func (r *LiveRebalancer) Counts() []int { return r.ledger.Counts() }

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

// decide runs one rebalance round and records the move it applied, if any.
func (r *LiveRebalancer) decide() {
	m, ok, err := r.ledger.Round(r.probe, r.resize)
	if err != nil {
		r.logf("server: %v", err)
		return
	}
	if !ok {
		return
	}
	from, to := r.cfg.Shards[m.From].Name(), r.cfg.Shards[m.To].Name()
	r.mu.Lock()
	r.moves++
	r.history = append(r.history, MoveRecord{
		AtUnixMS: time.Now().UnixMilli(),
		From:     from,
		To:       to,
		FromGPUs: m.FromGPUs,
		ToGPUs:   m.ToGPUs,
	})
	if len(r.history) > moveHistoryCap {
		r.history = r.history[len(r.history)-moveHistoryCap:]
	}
	r.mu.Unlock()
	r.logf("server: rebalanced 1 GPU %s → %s (%d → %d GPUs)", from, to, m.FromGPUs, m.ToGPUs)
}

// probe returns the classes shard i answered.
func (r *LiveRebalancer) probe(i int) []control.Feasibility {
	var answered []control.Feasibility
	for _, c := range r.classes {
		f, err := r.cfg.Shards[i].ProbeFeasibility(c.Res, c.Steps, c.SLO)
		if err != nil {
			continue // class not profiled on this shard, or shard unreachable
		}
		answered = append(answered, f)
	}
	return answered
}

func (r *LiveRebalancer) resize(i, n int) error { return r.cfg.Shards[i].Resize(n) }

func (r *LiveRebalancer) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}
