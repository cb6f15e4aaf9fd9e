package invariant_test

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tetriserve/internal/core"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/invariant"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/sim"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/stats"
	"tetriserve/internal/workload"
)

// The fuzz harness: seeded generators turn primitive fuzz inputs into
// workload/topology/fault instances, run them through the planner (and the
// whole control loop) with the oracle enabled, and fail on any invariant
// violation or nondeterminism. Failing inputs land in testdata/fuzz/ as
// corpus entries that plain `go test ./...` replays forever after.

var (
	profMu    sync.Mutex
	profCache = map[int]*costmodel.Profile{}
)

// fuzzProfile returns the cached FLUX profile for an n-GPU H100 node
// (profiles are deterministic, so sharing them keeps iterations cheap).
func fuzzProfile(n int) (*costmodel.Profile, *simgpu.Topology) {
	topo := simgpu.H100xN(n)
	profMu.Lock()
	defer profMu.Unlock()
	p, ok := profCache[n]
	if !ok {
		p = costmodel.BuildProfile(costmodel.NewEstimator(model.FLUX(), topo), costmodel.ProfilerConfig{})
		profCache[n] = p
	}
	return p, topo
}

// randGroup returns a random legal (power-of-two, aligned) group within the
// n-GPU node, or 0.
func randGroup(rng *stats.RNG, n int) simgpu.Mask {
	size := 1 << rng.Intn(4)
	if size > n {
		return 0
	}
	base := rng.Intn(n/size) * size
	return simgpu.MaskRange(simgpu.GPUID(base), size)
}

// fuzzPlanContext builds a randomized planning snapshot: a random free mask,
// pending requests with random resolutions, budgets, progress, and prior
// placements.
func fuzzPlanContext(rng *stats.RNG, prof *costmodel.Profile, topo *simgpu.Topology, nReq int) *sched.PlanContext {
	resList := model.StandardResolutions()
	now := time.Duration(rng.Intn(120_000)) * time.Millisecond
	free := simgpu.Mask(rng.Uint64()) & topo.AllMask()
	pending := make([]*sched.RequestState, 0, nReq)
	for i := 0; i < nReq; i++ {
		steps := 1 + rng.Intn(50)
		arrival := now - time.Duration(rng.Intn(5000))*time.Millisecond
		if arrival < 0 {
			arrival = 0
		}
		st := &sched.RequestState{
			Req: &workload.Request{
				ID:      workload.RequestID(i + 1),
				Res:     resList[rng.Intn(len(resList))],
				Steps:   steps,
				Arrival: arrival,
				SLO:     time.Duration(200+rng.Intn(6000)) * time.Millisecond,
			},
			Remaining: 1 + rng.Intn(steps),
			LastGroup: randGroup(rng, topo.N),
		}
		pending = append(pending, st)
	}
	return &sched.PlanContext{Now: now, Free: free, Pending: pending, Profile: prof, Topo: topo}
}

// clonePlan deep-copies a plan out of the scheduler's scratch so two plans
// from two scheduler instances can be compared after both have run.
func clonePlan(plan []sched.Assignment) []sched.Assignment {
	out := make([]sched.Assignment, len(plan))
	for i, a := range plan {
		a.Requests = append([]workload.RequestID(nil), a.Requests...)
		out[i] = a
	}
	return out
}

// FuzzPlanRound feeds randomized planning snapshots to Algorithm 1 with
// every mechanism-flag combination and checks that each produced plan passes
// the full invariant battery and that planning is deterministic.
func FuzzPlanRound(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(6), uint8(0))
	f.Add(uint64(42), uint8(4), uint8(3), uint8(0b1111))
	f.Add(uint64(7), uint8(2), uint8(12), uint8(0b0101))
	f.Add(uint64(1234), uint8(1), uint8(1), uint8(0b1010))
	f.Fuzz(func(t *testing.T, seed uint64, nGPUSel, nReqSel, flags uint8) {
		n := 1 << (int(nGPUSel) % 4) // 1, 2, 4, 8 GPUs
		nReq := 1 + int(nReqSel)%16
		prof, topo := fuzzProfile(n)

		cfg := core.DefaultConfig()
		cfg.PlacementPreservation = flags&1 != 0
		cfg.ElasticScaleUp = flags&2 != 0
		cfg.SelectiveBatching = flags&4 != 0
		cfg.BestEffortLane = flags&8 != 0

		newCtx := func() *sched.PlanContext {
			return fuzzPlanContext(stats.NewRNG(seed), prof, topo, nReq)
		}
		ctx := newCtx()
		s := core.NewScheduler(prof, topo, cfg)
		plan := s.Plan(ctx)

		if err := sched.ValidatePlan(ctx, plan); err != nil {
			t.Fatalf("plan failed baseline validation: %v", err)
		}
		if vs := invariant.CheckPlan(ctx, plan, s.RoundDuration()); len(vs) != 0 {
			t.Fatalf("plan violated invariants: %v", vs)
		}

		// Determinism: a fresh scheduler over an identical snapshot must
		// produce the identical plan.
		got := clonePlan(plan)
		again := clonePlan(core.NewScheduler(prof, topo, cfg).Plan(newCtx()))
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("planning is nondeterministic:\n first: %+v\nsecond: %+v", got, again)
		}
	})
}

// planReuseEquivalence drives one long-lived scheduler through an evolving
// sequence of planning snapshots and demands that every round's plan equals
// the plan of a fresh scheduler over the same snapshot: nothing a Plan call
// leaves behind (scratch arenas, the tminCache/cfgCache epochs, the per-plan
// memo) may leak into a later round. The evolution mixes perturbed rounds,
// repeated identical snapshots, and queue growth. Placement preservation is
// forced on: with it off the placement RNG is legitimately cross-round state.
//
// A third long-lived scheduler plans each round from the split the control
// loop hands over (lateSplit): the requests whose late marks held at the
// start of the round in Late, the rest in Pending. Its plan must equal the
// plan with every request in Pending. flags bit 16 bumps the profile's
// version at a random round, after which no mark holds; bit 32 snaps
// arrivals and SLOs to a one-second grid, so deadlines tie across the two
// lists.
func planReuseEquivalence(t *testing.T, seed uint64, nGPUSel, nReqSel, flags uint8) {
	planReuseRounds(t, seed, nGPUSel, nReqSel, flags)
}

// planReuseRounds runs planReuseEquivalence and reports how often the split
// was exercised: the late requests it held over all rounds, and the rounds
// where a request judged late afresh in Pending tied the Late head's
// deadline.
func planReuseRounds(t *testing.T, seed uint64, nGPUSel, nReqSel, flags uint8) (held, ties int) {
	n := 1 << (int(nGPUSel) % 4) // 1, 2, 4, 8 GPUs
	nReq := 1 + int(nReqSel)%16
	prof, topo := fuzzProfile(n)
	bumpAt := -1
	if flags&16 != 0 {
		// A private profile: the cached ones are shared across targets.
		prof = costmodel.BuildProfile(costmodel.NewEstimator(model.FLUX(), topo), costmodel.ProfilerConfig{})
		bumpAt = int(seed % 12)
	}
	resList := model.StandardResolutions()

	cfg := core.DefaultConfig()
	cfg.PlacementPreservation = true
	cfg.ElasticScaleUp = flags&2 != 0
	cfg.SelectiveBatching = flags&4 != 0
	cfg.BestEffortLane = flags&8 != 0
	reused := core.NewScheduler(prof, topo, cfg)
	split := core.NewScheduler(prof, topo, cfg)

	ctx := fuzzPlanContext(stats.NewRNG(seed), prof, topo, nReq)
	if flags&32 != 0 {
		for _, st := range ctx.Pending {
			st.Req.Arrival = st.Req.Arrival.Truncate(time.Second)
			st.Req.SLO = st.Req.SLO.Truncate(time.Second)
		}
	}
	// The control loop keeps its pending requests in (arrival, ID) order;
	// a tie on deadline goes to the earlier of the two in that order.
	slices.SortFunc(ctx.Pending, sched.ArrivalOrder)
	rng := stats.NewRNG(seed ^ 0x9e3779b97f4a7c15)
	tau := reused.RoundDuration()
	nextID := len(ctx.Pending) + 1
	for round := 0; round < 12; round++ {
		if round == bumpAt {
			prof.SetCachedStepRelCost(prof.CachedStepRelCost())
		}
		sctx := lateSplit(ctx)
		held += len(sctx.Late)
		if len(sctx.Late) > 0 {
			head := slices.Min(sctx.LateDue)
			for _, st := range sctx.Pending {
				if st.Deadline() == head && st.DefinitelyLate(ctx.Now, prof) {
					ties++
					break
				}
			}
		}
		sp := clonePlan(split.Plan(sctx))
		rp := clonePlan(reused.Plan(ctx))
		fp := clonePlan(core.NewScheduler(prof, topo, cfg).Plan(ctx))
		if !reflect.DeepEqual(rp, fp) {
			t.Fatalf("round %d: reused and fresh schedulers diverge:\n reused: %+v\n  fresh: %+v", round, rp, fp)
		}
		if !reflect.DeepEqual(sp, rp) {
			t.Fatalf("round %d: %d pending + %d late plans differently from all pending:\n split: %+v\n   all: %+v",
				round, len(sctx.Pending), len(sctx.Late), sp, rp)
		}
		if err := sched.ValidatePlan(ctx, rp); err != nil {
			t.Fatalf("round %d: plan failed validation: %v", round, err)
		}
		if err := sched.ValidatePlan(sctx, sp); err != nil {
			t.Fatalf("round %d: split plan failed validation: %v", round, err)
		}
		if round == bumpAt && len(sctx.Late) != 0 {
			t.Fatalf("round %d: %d marks hold across a profile version bump", round, len(sctx.Late))
		}
		// Evolve the snapshot for the next round.
		if rng.Intn(4) == 0 {
			continue // unchanged snapshot: the same solve over used scratch
		}
		ctx.Now += tau
		for _, st := range ctx.Pending {
			switch rng.Intn(3) {
			case 0:
				st.Remaining -= rng.Intn(5)
				if st.Remaining < 1 {
					st.Remaining = 1
				}
			case 1:
				st.LastGroup = randGroup(rng, topo.N)
			}
		}
		if rng.Intn(3) == 0 {
			ctx.Free = simgpu.Mask(rng.Uint64()) & topo.AllMask()
		}
		if rng.Intn(4) == 0 {
			steps := 1 + rng.Intn(50)
			ctx.Pending = append(ctx.Pending, &sched.RequestState{
				Req: &workload.Request{
					ID:      workload.RequestID(nextID),
					Res:     resList[rng.Intn(len(resList))],
					Steps:   steps,
					Arrival: ctx.Now,
					SLO:     time.Duration(200+rng.Intn(6000)) * time.Millisecond,
				},
				Remaining: steps,
			})
			nextID++
		}
	}
	return held, ties
}

// lateSplit returns a copy of ctx with the split the control loop makes:
// the requests whose late mark holds at ctx.Now move from Pending to Late,
// with their mark deadlines in LateDue. ctx.Pending must be in (arrival,
// ID) order; both lists keep it.
func lateSplit(ctx *sched.PlanContext) *sched.PlanContext {
	out := *ctx
	out.Pending, out.Late, out.LateDue = nil, nil, nil
	for _, st := range ctx.Pending {
		if st.LateHolds(ctx.Profile, ctx.Now) {
			out.Late = append(out.Late, st)
			out.LateDue = append(out.LateDue, st.Late.Deadline)
		} else {
			out.Pending = append(out.Pending, st)
		}
	}
	return &out
}

// FuzzPlanReuse is the cross-round state fuzzer: whatever snapshot sequence
// the input derives, a scheduler that has planned before must plan exactly
// like one that has not. Shares the FuzzPlanRound input shape so corpus
// entries transfer.
func FuzzPlanReuse(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(6), uint8(0))
	f.Add(uint64(42), uint8(4), uint8(3), uint8(0b1111))
	f.Add(uint64(7), uint8(2), uint8(12), uint8(0b0101))
	f.Add(uint64(99), uint8(3), uint8(15), uint8(0b1101))
	f.Fuzz(planReuseEquivalence)
}

// TestPlanReuseEquivalence pins a deterministic battery of the same check so
// the property is exercised by plain `go test` runs beyond corpus replay.
// Bits 16 and 32 of the flags (version bump, deadline grid) follow the seed
// mod 4, so the battery covers them too and must exercise the split.
func TestPlanReuseEquivalence(t *testing.T) {
	held, ties := 0, 0
	for seed := uint64(1); seed <= 24; seed++ {
		h, tie := planReuseRounds(t, seed, uint8(seed), uint8(3*seed), uint8(seed>>1)|uint8(seed&3)<<4)
		held, ties = held+h, ties+tie
	}
	if held == 0 || ties == 0 {
		t.Fatalf("battery too tame: %d late requests held, %d deadline ties across the split", held, ties)
	}
	t.Logf("%d late requests held, %d deadline ties across the split", held, ties)
}

// TestSeedCorpusCommitted pins the replay contract: the committed corpus
// under testdata/fuzz/ must exist and be non-empty for every target, because
// native Go fuzzing replays exactly those files as subtests of a plain
// `go test ./...` — deleting the corpus would silently drop regressions.
func TestSeedCorpusCommitted(t *testing.T) {
	for _, target := range []string{"FuzzPlanRound", "FuzzControlLoop", "FuzzElasticControlLoop", "FuzzPlanReuse", "FuzzCacheAwarePlan"} {
		entries, err := os.ReadDir(filepath.Join("testdata", "fuzz", target))
		if err != nil {
			t.Fatalf("%s corpus missing: %v", target, err)
		}
		if len(entries) == 0 {
			t.Fatalf("%s corpus is empty", target)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join("testdata", "fuzz", target, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(string(data), "go test fuzz v1\n") {
				t.Fatalf("%s/%s is not a go-fuzz corpus entry", target, e.Name())
			}
		}
	}
}

// fuzzSimConfig derives a full simulation instance — trace, scheduler,
// faults — from fuzz primitives. Both runs of the same input must build
// identical configs.
func fuzzSimConfig(seed uint64, nReqSel, schedPick, faultPick, rateSel uint8) sim.Config {
	prof, topo := fuzzProfile(8)
	mdl := model.FLUX()
	nReq := 1 + int(nReqSel)%24
	rate := 6 + float64(rateSel%8)*8

	var sc sched.Scheduler
	switch schedPick % 5 {
	case 0:
		sc = core.NewScheduler(prof, topo, core.DefaultConfig())
	case 1:
		sc = sched.NewFixedSP(2)
	case 2:
		sc = sched.NewFixedSP(8)
	case 3:
		sc = sched.NewRSSP(8)
	default:
		sc = sched.NewEDF()
	}

	var faults []simgpu.Fault
	switch faultPick % 3 {
	case 1:
		faults = []simgpu.Fault{{GPU: simgpu.GPUID(faultPick % 8), FailAt: 10 * time.Second}}
	case 2:
		faults = []simgpu.Fault{
			{GPU: simgpu.GPUID(faultPick % 8), FailAt: 8 * time.Second, RecoverAt: 25 * time.Second},
			{GPU: simgpu.GPUID((faultPick + 3) % 8), FailAt: 15 * time.Second},
		}
	}

	return sim.Config{
		Model:     mdl,
		Topo:      topo,
		Scheduler: sc,
		Requests: workload.Generate(workload.GeneratorConfig{
			Model:       mdl,
			Mix:         workload.UniformMix(),
			Arrivals:    workload.PoissonArrivals{PerMinute: rate},
			SLO:         workload.NewSLOPolicy(1.2),
			NumRequests: nReq,
			Seed:        seed,
		}),
		Profile:         prof,
		DropLateFactor:  4.0,
		Faults:          faults,
		CheckInvariants: true,
	}
}

// FuzzControlLoop runs seeded workload/fault instances through the full
// control loop with the oracle attached (strict mode: any invariant breach
// panics and the fuzzer records the input), then re-runs the same input and
// demands an identical result — outcomes, run log, counters — end-to-end
// determinism of the whole stack.
func FuzzControlLoop(f *testing.F) {
	f.Add(uint64(3), uint8(10), uint8(0), uint8(0), uint8(2))
	f.Add(uint64(11), uint8(20), uint8(0), uint8(2), uint8(4))
	f.Add(uint64(5), uint8(8), uint8(3), uint8(0), uint8(1))
	f.Add(uint64(9), uint8(16), uint8(4), uint8(0), uint8(6))
	f.Fuzz(func(t *testing.T, seed uint64, nReqSel, schedPick, faultPick, rateSel uint8) {
		run := func() *sim.Result {
			res, err := sim.Run(fuzzSimConfig(seed, nReqSel, schedPick, faultPick, rateSel))
			if err != nil {
				// Rigid fixed-degree policies can wedge when a fault shrinks
				// the cluster below their degree; the loop reports it rather
				// than spinning. That is a scheduler limitation by design,
				// not an invariant breach.
				if strings.Contains(err.Error(), "deadlock") {
					t.Skip("scheduler cannot make progress on the shrunken cluster")
				}
				t.Fatalf("sim failed: %v", err)
			}
			return res
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("control loop is nondeterministic:\n first: %+v\nsecond: %+v", a, b)
		}
	})
}

// fuzzResizes derives a planned capacity-change schedule from a fuzz
// primitive. Masks stay non-empty and inside the 8-GPU topology; shapes cover
// a lone shrink, shrink-then-restore, and a donate-from-the-top slice so the
// surviving mask is not always a prefix.
func fuzzResizes(resizePick uint8, topo *simgpu.Topology) []simgpu.Resize {
	all := topo.AllMask()
	keep := 1 + int(resizePick)%all.Count()
	switch resizePick % 4 {
	case 0:
		return nil
	case 1:
		return []simgpu.Resize{{At: 9 * time.Second, NewMask: simgpu.MaskRange(0, keep)}}
	case 2:
		return []simgpu.Resize{
			{At: 7 * time.Second, NewMask: simgpu.MaskRange(0, keep)},
			{At: 22 * time.Second, NewMask: all},
		}
	default:
		low := all
		for low.Count() > keep {
			low = low.Without(low.Highest())
		}
		return []simgpu.Resize{
			{At: 5 * time.Second, NewMask: all.Without(low)},
			{At: 18 * time.Second, NewMask: all},
		}
	}
}

// fuzzCacheSimConfig derives a simulation instance with the step-cache
// dimension enabled: always the TetriServe scheduler (the only policy with
// the cache knob), MaxCacheInterval from cacheSel, and per-request quality
// budgets varied deterministically from budgetSel (including 0 — caching
// forbidden — so the mix always exercises the legacy path too). Both runs of
// the same input must build identical configs.
func fuzzCacheSimConfig(seed uint64, nReqSel, faultPick, rateSel, cacheSel, budgetSel uint8) sim.Config {
	prof, topo := fuzzProfile(8)
	mdl := model.FLUX()
	nReq := 1 + int(nReqSel)%24
	rate := 6 + float64(rateSel%8)*8

	cfg := core.DefaultConfig()
	cfg.MaxCacheInterval = 2 + int(cacheSel)%7 // 2..8

	var faults []simgpu.Fault
	switch faultPick % 3 {
	case 1:
		faults = []simgpu.Fault{{GPU: simgpu.GPUID(faultPick % 8), FailAt: 10 * time.Second}}
	case 2:
		faults = []simgpu.Fault{
			{GPU: simgpu.GPUID(faultPick % 8), FailAt: 8 * time.Second, RecoverAt: 25 * time.Second},
			{GPU: simgpu.GPUID((faultPick + 3) % 8), FailAt: 15 * time.Second},
		}
	}

	reqs := workload.Generate(workload.GeneratorConfig{
		Model:       mdl,
		Mix:         workload.UniformMix(),
		Arrivals:    workload.PoissonArrivals{PerMinute: rate},
		SLO:         workload.NewSLOPolicy(1.2),
		NumRequests: nReq,
		Seed:        seed,
	})
	for i, r := range reqs {
		// Budgets 0..Steps/2, spread across the trace so every run mixes
		// cache-forbidden, tight, and generous requests.
		r.QualityBudget = (int(budgetSel) + i*5) % (r.Steps/2 + 1)
	}

	return sim.Config{
		Model:           mdl,
		Topo:            topo,
		Scheduler:       core.NewScheduler(prof, topo, cfg),
		Requests:        reqs,
		Profile:         prof,
		DropLateFactor:  4.0,
		Faults:          faults,
		CheckInvariants: true,
	}
}

// FuzzCacheAwarePlan interleaves the step-cache knobs (MaxCacheInterval,
// per-request quality budgets) with faults and planned capacity resizes under
// the strict oracle: every plan's cached blocks must respect the quality
// budget and protection zone (RuleQuality), the quality ledger must conserve
// through aborts and preemptions, the whole run must replay bit-identically,
// and no finalized request may exceed its budget.
func FuzzCacheAwarePlan(f *testing.F) {
	f.Add(uint64(3), uint8(10), uint8(0), uint8(2), uint8(2), uint8(4), uint8(0))
	f.Add(uint64(11), uint8(20), uint8(2), uint8(4), uint8(0), uint8(9), uint8(2))
	f.Add(uint64(5), uint8(8), uint8(1), uint8(1), uint8(6), uint8(0), uint8(3))
	f.Add(uint64(9), uint8(16), uint8(2), uint8(6), uint8(3), uint8(25), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, nReqSel, faultPick, rateSel, cacheSel, budgetSel, resizePick uint8) {
		run := func() *sim.Result {
			cfg := fuzzCacheSimConfig(seed, nReqSel, faultPick, rateSel, cacheSel, budgetSel)
			cfg.Resizes = fuzzResizes(resizePick, cfg.Topo)
			res, err := sim.Run(cfg)
			if err != nil {
				if strings.Contains(err.Error(), "deadlock") {
					t.Skip("scheduler cannot make progress on the shrunken cluster")
				}
				t.Fatalf("sim failed: %v", err)
			}
			return res
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("cache-aware loop is nondeterministic:\n first: %+v\nsecond: %+v", a, b)
		}
		// Budget conservation, double-checked outside the oracle: the budget
		// each request was admitted with bounds its finalized approximation.
		budget := map[workload.RequestID]int{}
		for _, r := range fuzzCacheSimConfig(seed, nReqSel, faultPick, rateSel, cacheSel, budgetSel).Requests {
			budget[r.ID] = r.QualityBudget
		}
		for _, out := range a.Outcomes {
			if out.Approximated > budget[out.ID] {
				t.Fatalf("request %d approximated %d steps over its budget %d", out.ID, out.Approximated, budget[out.ID])
			}
		}
	})
}

// FuzzElasticControlLoop is FuzzControlLoop with planned capacity changes
// interleaved into the fault schedule: whatever resize/fault interleaving the
// input derives, the oracle must hold through every capacity transition and
// the whole run must replay bit-identically.
func FuzzElasticControlLoop(f *testing.F) {
	f.Add(uint64(3), uint8(10), uint8(0), uint8(0), uint8(2), uint8(1))
	f.Add(uint64(11), uint8(20), uint8(0), uint8(2), uint8(4), uint8(2))
	f.Add(uint64(5), uint8(8), uint8(1), uint8(1), uint8(1), uint8(3))
	f.Add(uint64(9), uint8(16), uint8(4), uint8(2), uint8(6), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, nReqSel, schedPick, faultPick, rateSel, resizePick uint8) {
		run := func() *sim.Result {
			cfg := fuzzSimConfig(seed, nReqSel, schedPick, faultPick, rateSel)
			cfg.Resizes = fuzzResizes(resizePick, cfg.Topo)
			res, err := sim.Run(cfg)
			if err != nil {
				// Shrinking the cluster below a rigid policy's degree wedges
				// it just like a fault does; the loop reports the deadlock
				// rather than spinning.
				if strings.Contains(err.Error(), "deadlock") {
					t.Skip("scheduler cannot make progress on the shrunken cluster")
				}
				t.Fatalf("sim failed: %v", err)
			}
			return res
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("elastic control loop is nondeterministic:\n first: %+v\nsecond: %+v", a, b)
		}
	})
}
