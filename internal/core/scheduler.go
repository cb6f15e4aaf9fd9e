// Package core implements the paper's contribution: TetriServe's
// deadline-aware round-based scheduler (§4).
//
// Every round of duration τ the scheduler:
//
//  1. splits pending requests into active ones and definitely-late ones
//     (the latter go to a ≤1-GPU best-effort lane, §4.2.2);
//  2. computes, per active request, the minimal-GPU-hour mix of
//     sequence-parallel degrees that still meets its deadline (§4.2.1);
//  3. packs requests into the round with the group-knapsack dynamic
//     program of Algorithm 1, maximizing the number of requests that
//     survive (are not definitely late at the next round boundary);
//  4. maps the chosen degrees onto concrete GPU groups with placement
//     preservation, merges small same-resolution SP=1 selections through
//     selective continuous batching, and grants leftover GPUs via
//     work-conserving elastic scale-up (§4.2.3, §5).
package core

import (
	"time"

	"tetriserve/internal/costmodel"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/stats"
)

// Config selects TetriServe's mechanisms. Start from DefaultConfig (the
// paper's set); NewScheduler fills only a zero StepGranularity or
// MaxCacheInterval.
type Config struct {
	// StepGranularity is how many reference steps one round holds (§6.4,
	// Figure 15). The reference step is the fastest step of the most
	// expensive profiled resolution, so the largest requests advance at
	// least StepGranularity steps per round. Default 5.
	StepGranularity int
	// PlacementPreservation keeps requests on their previous GPU sets
	// across rounds (ablated in Table 5). Default on.
	PlacementPreservation bool
	// ElasticScaleUp grants idle GPUs to placed requests that benefit
	// (ablated in Table 5). Default on.
	ElasticScaleUp bool
	// SelectiveBatching merges small same-resolution SP=1 selections when
	// no member's deadline is compromised (§5). Default on.
	SelectiveBatching bool
	// BestEffortLane runs already-late requests on leftover single GPUs
	// (§4.2.2). Default on.
	BestEffortLane bool
	// EagerAdmission additionally invokes the planner when a request
	// arrives and GPUs are idle, instead of waiting for the next round
	// boundary; rounds re-anchor to the new block. This is the
	// work-conserving counterpart of elastic scale-up for admission and
	// matters most for near-deadline large requests on an idle cluster.
	// Default on.
	EagerAdmission bool
	// QuantizationAwareMix makes the §4.2.1 allocator cost degrees by
	// their *effective* per-step time under round execution (window/q
	// instead of T(k)), steering the mix away from degrees whose steps
	// tile the round poorly. Default on; off reproduces a naive
	// profile-time allocator for the extensions ablation.
	QuantizationAwareMix bool
	// MaxCacheInterval caps the step-cache cadence the planner may assign:
	// at interval c, one step in c runs fully and the rest reuse cached
	// features at the profile's discounted cost. The planner spends a
	// request's quality budget (Request.QualityBudget) only to flip an
	// otherwise-infeasible deadline, never inside the first/last
	// sched.CacheProtectedSteps steps. Default 1 (caching off — planning is
	// bit-identical to the cache-oblivious scheduler).
	MaxCacheInterval int
}

// DefaultConfig returns the paper's default mechanism set.
func DefaultConfig() Config {
	return Config{
		StepGranularity:       5,
		PlacementPreservation: true,
		ElasticScaleUp:        true,
		SelectiveBatching:     true,
		BestEffortLane:        true,
		EagerAdmission:        true,
		QuantizationAwareMix:  true,
		MaxCacheInterval:      1,
	}
}

// Round and placement constants: one value each in use outside tests
// (DESIGN §6).
const (
	// maxRound caps τ so coarse granularities on slow hardware do not
	// starve short-SLO requests of admission.
	maxRound = time.Second
	// schedOverhead is the control-plane cost charged at the start of each
	// round (DP + dispatch); it shrinks the usable round window and is what
	// makes 1-step granularity lose under load.
	schedOverhead = 8 * time.Millisecond
	placementSeed = 7 // random placement when preservation is off
)

// MaxCacheIntervalCap bounds the cache cadence: beyond one full step in
// eight, approximation error compounds past what any quality budget should
// license. Config values above the cap are clamped; flag parsers should
// reject them loudly.
const MaxCacheIntervalCap = 8

func (c *Config) normalize() {
	if c.StepGranularity <= 0 {
		c.StepGranularity = 5
	}
	if c.MaxCacheInterval < 1 {
		c.MaxCacheInterval = 1
	}
	if c.MaxCacheInterval > MaxCacheIntervalCap {
		c.MaxCacheInterval = MaxCacheIntervalCap
	}
}

// Scheduler is TetriServe's round-based scheduler. It implements
// sched.Scheduler and is driven at fixed round boundaries.
//
// A Scheduler is NOT safe for concurrent use: Plan reuses per-round scratch
// buffers (see scratch.go), and the returned plan aliases them, remaining
// valid only until the next Plan call. Drive each Scheduler from a single
// goroutine — the simulator, the live server loop, and the parallel
// experiment harness (one scheduler per cell) all do.
type Scheduler struct {
	cfg  Config
	prof *costmodel.Profile
	topo *simgpu.Topology
	tau  time.Duration
	rng  *stats.RNG

	// scratch holds the zero-alloc hot-path buffers reused across rounds.
	scratch planScratch

	// Diagnostics exported for experiments.
	placementFailures int
	dpRows            int
}

// WarmStats is the scheduler's DP row counter. Its name, and the two fields
// that always read 0, are kept only because bench/sim.go reads them for the
// core.replay_hit_share and core.resumed_row_share ledger rows; they go when
// a benchmark-archetype PR drops those rows.
type WarmStats struct {
	// ReplayHits is always 0 (no plan is ever answered from a cache).
	ReplayHits int
	// ResumedRows is always 0 (every DP row is computed).
	ResumedRows int
	// ColdRows counts the candidate rows the DP has computed.
	ColdRows int
}

// NewScheduler builds a TetriServe scheduler for the profiled cluster.
func NewScheduler(prof *costmodel.Profile, topo *simgpu.Topology, cfg Config) *Scheduler {
	cfg.normalize()
	s := &Scheduler{
		cfg:  cfg,
		prof: prof,
		topo: topo,
		rng:  stats.NewRNG(placementSeed),
	}
	s.tau = s.computeRound()
	return s
}

// computeRound derives τ: StepGranularity × the fastest per-step time of the
// most expensive profiled resolution, plus the control-plane overhead so the
// usable window holds exactly StepGranularity reference steps, capped at
// maxRound. Rounds sized this way let every resolution complete an integral
// number of steps near the boundary, minimizing idle bubbles (§4.2.2 "Round
// Duration").
func (s *Scheduler) computeRound() time.Duration {
	var refRes model.Resolution
	refTokens := -1
	for _, res := range s.prof.Resolutions() {
		if t := res.Pixels(); t > refTokens {
			refTokens = t
			refRes = res
		}
	}
	ref, _ := s.prof.MinStepTime(refRes)
	tau := time.Duration(s.cfg.StepGranularity)*ref + schedOverhead
	if tau > maxRound {
		tau = maxRound
	}
	if tau < ref+schedOverhead {
		tau = ref + schedOverhead
	}
	return tau
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "TetriServe" }

// RoundDuration implements sched.Scheduler: the fixed round length τ.
func (s *Scheduler) RoundDuration() time.Duration { return s.tau }

// Overhead reports the per-round control-plane budget; the simulator
// charges it as dispatch delay so blocks occupy τ end to end.
func (s *Scheduler) Overhead() time.Duration { return schedOverhead }

// EagerAdmission reports whether the driver should also invoke Plan on
// request arrival (in addition to round boundaries).
func (s *Scheduler) EagerAdmission() bool { return s.cfg.EagerAdmission }

// MaxCacheInterval reports the configured step-cache cap (1 = caching off).
// The control loop's feasibility probe asserts for this method to project
// cache-assisted service times without depending on the concrete type.
func (s *Scheduler) MaxCacheInterval() int { return s.cfg.MaxCacheInterval }

// PlacementFailures counts DP selections that could not be mapped onto
// aligned free groups (diagnostics; should stay near zero).
func (s *Scheduler) PlacementFailures() int { return s.placementFailures }

// Warm returns the DP work counters (see WarmStats for the name). They move
// only inside Plan, so two loops with equal counters planned equally often
// over equally deep queues.
func (s *Scheduler) Warm() WarmStats {
	return WarmStats{ColdRows: s.dpRows}
}

// window returns the usable execution window within a round.
func (s *Scheduler) window() time.Duration { return s.tau - schedOverhead }

// Plan implements sched.Scheduler for one round (Algorithm 1 plus the
// §4.2.3 placement/elastic extensions). The returned plan (including its
// Requests slices) aliases the scheduler's reusable scratch and is valid
// only until the next Plan call; callers that retain assignments across
// rounds must copy them (the engine does).
func (s *Scheduler) Plan(ctx *sched.PlanContext) []sched.Assignment {
	tNext := ctx.Now + s.tau
	s.beginPlan(ctx.Profile)
	sc := &s.scratch

	// Partition pending requests into active and definitely-late, picking
	// the best-effort lane's request on the way.
	s.partition(ctx)

	// Stage 1: deadline-aware minimal-GPU-hour allocation per request.
	// All plan-time lookups go through ctx.Profile so a live server may
	// extend the table (on-demand profiling) without rebuilding schedulers.
	// Candidates live in the scratch arena; the arena is sized up front so
	// the pointers taken here stay valid.
	arena := sc.grabCandidates(len(sc.active))
	for i, st := range sc.active {
		c := &arena[i]
		if s.buildCandidate(ctx.Profile, ctx.Now, tNext, st, c) {
			sc.cands = append(sc.cands, c)
		}
	}

	// Stage 2: group-knapsack DP over the free capacity, after excluding
	// candidates that cannot affect the packing (prune.go).
	capGPUs := ctx.Free.Count()
	chosen := s.packDP(s.pruneCandidates(sc.cands), capGPUs)

	// Stage 3: placement, batching, elastic scale-up, best-effort lane.
	return s.assemble(ctx, chosen, sc.cands, sc.late)
}

var _ sched.Scheduler = (*Scheduler)(nil)
