package sim

import (
	"fmt"
	"io"
	"time"

	"tetriserve/internal/clock"
	"tetriserve/internal/control"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/engine"
	"tetriserve/internal/invariant"
	"tetriserve/internal/lifecycle"
	"tetriserve/internal/model"
	"tetriserve/internal/router"
	"tetriserve/internal/sched"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

// ShardSpec describes one independent control-plane pool in a sharded
// simulation: its own topology, scheduler, and (optionally) cost profile —
// the per-class pools the admission router balances across.
type ShardSpec struct {
	Name      string
	Topo      *simgpu.Topology
	Scheduler sched.Scheduler
	// Profile defaults to BuildProfile over the standard resolutions for
	// this shard's topology.
	Profile *costmodel.Profile
	// Capacity restricts the shard to a subset of its topology's GPUs at
	// start (elastic serving: build shards on a common full-size topology
	// and slice it, so rebalancing can grow a shard without changing its
	// profile). Zero means the full topology. With ShardedConfig.Rebalance
	// set it must be a prefix, GPUs 0..n-1.
	Capacity simgpu.Mask
}

// ShardedConfig describes a router-over-shards simulation: the same request
// trace the single-loop simulator consumes, fronted by the admission router
// instead of being pre-scheduled onto one loop.
type ShardedConfig struct {
	Model  *model.Model
	Shards []ShardSpec
	// Requests must be sorted by Arrival (workload.Generate's output order).
	Requests []*workload.Request
	// Tenant maps a request to its admission tenant; nil puts everyone in
	// one tenant ("", weight 1).
	Tenant func(r *workload.Request) string
	// Router carries the tenant weights and an optional decision observer;
	// shards are wired by the harness.
	Router router.Config
	// Rebalance enables elastic GPU rebalancing between shards: on a fixed
	// virtual-time cadence the harness probes every shard, asks the policy
	// for donate/receive moves, and applies them as capacity resizes that
	// land at each loop's next round boundary. Nil disables rebalancing.
	Rebalance *RebalanceConfig
	// Lifecycle attaches a per-shard request lifecycle recorder
	// (internal/lifecycle): every admitted request gets a span-structured
	// timeline keyed by a deterministic trace ID ("t-<admission-seq>")
	// minted at the routing instant. Timestamps are virtual-clock
	// microseconds, so repeated runs reproduce timelines bit-identically.
	Lifecycle bool
	// SpanSink, when set, receives one JSON line per finalized timeline
	// (implies Lifecycle). Memory stays bounded: the in-memory rings keep
	// only LifecycleCapacity timelines per shard while the sink streams
	// everything.
	SpanSink io.Writer
	// LifecycleCapacity bounds retained finalized timelines per shard
	// (default 4096).
	LifecycleCapacity int
	// DropLateFactor, CheckInvariants and MaxVirtualTime carry the
	// single-loop Config's semantics, applied per shard.
	DropLateFactor  float64
	CheckInvariants bool
	MaxVirtualTime  time.Duration
}

// RejectedRequest records one early-rejected submission with the router's
// full verdict (which shards were probed, why none won).
type RejectedRequest struct {
	Req      *workload.Request
	Decision router.Decision
}

// ShardedResult aggregates a sharded run: one control Result per shard plus
// the admission ledger. SLO attainment over the *offered* load (admitted and
// rejected together) is the router-vs-monolith comparison metric.
type ShardedResult struct {
	Shards   []*Result
	Rejected []RejectedRequest
	Router   router.Stats
	// Routed maps each admitted request ID to its shard index.
	Routed map[workload.RequestID]int
	// Rebalances lists applied elastic GPU moves in decision order (empty
	// without ShardedConfig.Rebalance).
	Rebalances []RebalanceEvent
	// Lifecycles holds each shard's lifecycle recorder, parallel to Shards
	// (nil unless ShardedConfig.Lifecycle or SpanSink is set).
	Lifecycles []*lifecycle.Recorder
}

// Timeline looks a finalized timeline up by trace ID or decimal request ID,
// searching shards in index order.
func (r *ShardedResult) Timeline(key string) (*lifecycle.Timeline, bool) {
	for _, rec := range r.Lifecycles {
		if rec == nil {
			continue
		}
		if tl, ok := rec.Lookup(key); ok {
			return tl, true
		}
	}
	return nil, false
}

// Offered returns the total offered load (admitted + rejected).
func (r *ShardedResult) Offered() int {
	n := len(r.Rejected)
	for _, s := range r.Shards {
		n += len(s.Outcomes)
	}
	return n
}

// loopShard adapts a control.Loop to the router's Shard interface. The
// sharded harness is single-goroutine, so probing the loop directly is safe.
type loopShard struct {
	name string
	l    *control.Loop
}

func (s loopShard) Name() string { return s.name }

func (s loopShard) ProbeFeasibility(res model.Resolution, steps int, slo time.Duration) (control.Feasibility, error) {
	return s.l.ProbeFeasibility(res, steps, slo)
}

// RunSharded executes a router-over-shards simulation to completion: all
// shards share one virtual clock, arrivals are routed (or rejected) at their
// arrival instant, and each shard's event queue drains exactly as in the
// single-loop simulator. Event interleaving is deterministic: the earliest
// event across shards runs first, arrivals run before same-instant shard
// events (matching the single-loop convention where an arrival is admitted
// before the tick it arms plans it), and shard index breaks remaining ties.
func RunSharded(cfg ShardedConfig) (*ShardedResult, error) {
	if cfg.Model == nil || len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("sim: Model and at least one shard are required")
	}
	if len(cfg.Requests) == 0 {
		return nil, fmt.Errorf("sim: empty request trace")
	}
	if cfg.MaxVirtualTime <= 0 {
		cfg.MaxVirtualTime = 4 * time.Hour
	}
	tenant := cfg.Tenant
	if tenant == nil {
		tenant = func(*workload.Request) string { return "" }
	}

	clk := clock.NewVirtual()
	loops := make([]*control.Loop, len(cfg.Shards))
	oracles := make([]*invariant.Oracle, len(cfg.Shards))
	shards := make([]router.Shard, len(cfg.Shards))
	profs := make([]*costmodel.Profile, len(cfg.Shards))
	caps := make([]int, len(cfg.Shards))
	recordLifecycle := cfg.Lifecycle || cfg.SpanSink != nil
	var recs []*lifecycle.Recorder
	if recordLifecycle {
		recs = make([]*lifecycle.Recorder, len(cfg.Shards))
	}
	for i, spec := range cfg.Shards {
		if spec.Topo == nil || spec.Scheduler == nil {
			return nil, fmt.Errorf("sim: shard %d needs Topo and Scheduler", i)
		}
		name := spec.Name
		if name == "" {
			name = fmt.Sprintf("shard%d", i)
		}
		prof := spec.Profile
		if prof == nil {
			prof = costmodel.BuildProfile(
				costmodel.NewEstimator(cfg.Model, spec.Topo), costmodel.ProfilerConfig{})
		}
		engCfg := engine.DefaultConfig()
		if spec.Capacity != 0 {
			if cfg.Rebalance != nil && spec.Capacity != simgpu.MaskRange(0, spec.Capacity.Count()) {
				return nil, fmt.Errorf("sim: shard %d: rebalancing needs a prefix Capacity (GPUs 0..n-1), got %v", i, spec.Capacity)
			}
			engCfg.Capacity = spec.Capacity
		}
		ctlCfg := control.Config{
			Model:          cfg.Model,
			Topo:           spec.Topo,
			Scheduler:      spec.Scheduler,
			Profile:        prof,
			Engine:         engCfg,
			DropLateFactor: cfg.DropLateFactor,
			Strict:         true,
		}
		if cfg.CheckInvariants {
			oracles[i] = invariant.Attach(&ctlCfg)
		}
		if recordLifecycle {
			recs[i] = lifecycle.NewRecorder(lifecycle.Config{
				Shard:    name,
				Capacity: cfg.LifecycleCapacity,
				Sink:     cfg.SpanSink,
			})
			ctlCfg.Hooks = ctlCfg.Hooks.Then(recs[i].Hooks())
		}
		l, err := control.New(ctlCfg, clk)
		if err != nil {
			return nil, fmt.Errorf("sim: shard %d: %w", i, err)
		}
		loops[i] = l
		profs[i] = prof
		caps[i] = spec.Topo.N
		shards[i] = loopShard{name: name, l: l}
	}

	rt, err := router.New(cfg.Router, shards)
	if err != nil {
		return nil, err
	}

	var reb *rebalancer
	if cfg.Rebalance != nil {
		if reb, err = newRebalancer(cfg.Rebalance, loops, profs, caps); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}

	out := &ShardedResult{Routed: map[workload.RequestID]int{}}
	next := 0 // next arrival index
	for {
		hasArrival := next < len(cfg.Requests)
		unfinished := 0
		for _, l := range loops {
			unfinished += l.Unfinished()
		}
		if !hasArrival && unfinished == 0 {
			break
		}
		// Earliest shard event (ties → lowest index) vs. next arrival.
		ei, et := -1, time.Duration(0)
		for i, l := range loops {
			if ev := l.NextEvent(); ev != nil && (ei < 0 || ev.At < et) {
				ei, et = i, ev.At
			}
		}
		// Elastic rebalancing shares the virtual clock: a decision instant
		// due at or before the next event (or arrival) runs first, so the
		// probe → decide → resize round is a fixed grid point of the run —
		// re-executions replay it bit-identically.
		if reb != nil {
			cand, hasCand := et, ei >= 0
			if hasArrival && (!hasCand || cfg.Requests[next].Arrival < cand) {
				cand, hasCand = cfg.Requests[next].Arrival, true
			}
			if hasCand && cand >= reb.next {
				at := reb.next
				clk.Advance(at)
				reb.decide(at)
				continue
			}
		}
		if hasArrival && (ei < 0 || cfg.Requests[next].Arrival <= et) {
			r := cfg.Requests[next]
			next++
			clk.Advance(r.Arrival)
			tn := tenant(r)
			// Every probe reads the shared clock at the arrival instant, so
			// the router's fairness window runs on arrival times.
			dec := rt.Route(tn, r.Res, r.Steps, r.SLO)
			if dec.Accepted {
				if r.TraceID == "" {
					r.TraceID = dec.TraceID
				}
				if r.Tenant == "" {
					r.Tenant = tn
				}
				out.Routed[r.ID] = dec.Shard
				loops[dec.Shard].Arrive(r)
			} else {
				out.Rejected = append(out.Rejected, RejectedRequest{Req: r, Decision: dec})
			}
			continue
		}
		if ei < 0 {
			return nil, fmt.Errorf("sim: %d requests unfinished but no pending events (deadlock)", unfinished)
		}
		if et > cfg.MaxVirtualTime {
			return nil, fmt.Errorf("sim: exceeded max virtual time %s with %d requests left", cfg.MaxVirtualTime, unfinished)
		}
		clk.Advance(et)
		if err := loops[ei].Dispatch(loops[ei].PopEvent()); err != nil {
			return nil, fmt.Errorf("sim: shard %d: %w", ei, err)
		}
	}

	out.Shards = make([]*Result, len(loops))
	for i, l := range loops {
		res := l.Finalize()
		if oracles[i] != nil {
			if err := oracles[i].VerifyResult(res); err != nil {
				return nil, fmt.Errorf("sim: shard %d: %w", i, err)
			}
		}
		out.Shards[i] = res
	}
	out.Router = rt.Stats()
	if reb != nil {
		out.Rebalances = reb.events
	}
	out.Lifecycles = recs
	if recordLifecycle {
		for i, rec := range recs {
			if err := rec.SinkErr(); err != nil {
				return nil, fmt.Errorf("sim: shard %d span sink: %w", i, err)
			}
		}
	}
	return out, nil
}
