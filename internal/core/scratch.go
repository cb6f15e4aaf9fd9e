package core

// This file holds the scheduler's reusable per-round scratch state. Plan is
// the control-plane hot path (the <10 ms claim of Appendix B); re-allocating
// candidates, DP rows and placement buffers every round made the Go
// allocator, not the algorithm, the dominant cost at deep queues. All
// buffers below are owned by one Scheduler and reused across Plan calls,
// which is safe because Plan is never invoked concurrently on one scheduler
// (both the simulator and the live server drive a scheduler from a single
// goroutine; the parallel experiment harness constructs one scheduler per
// worker).

import (
	"time"

	"tetriserve/internal/costmodel"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/workload"
)

// mixKey identifies one deadline-aware allocation subproblem. The budget is
// the exact remaining time to deadline: quantizing the key would let two
// requests with different deadlines share a (possibly wrong) plan and change
// round decisions, so the memo trades hit rate for bit-for-bit
// reproducibility. Requests of the same resolution arriving together (the
// common burst shape) still collapse onto a handful of keys.
type mixKey struct {
	res    model.Resolution
	steps  int
	budget time.Duration
}

// planScratch is the arena reused across Plan calls.
type planScratch struct {
	// Stage 0: request partition. late is the best-effort lane's pick, not
	// the whole late set: the earliest-deadline definitely-late request of
	// ctx.Pending and ctx.Late, ties to the first in (arrival, ID) order,
	// with its deadline in lateDue; nil when no request is definitely late.
	active  []*sched.RequestState
	late    *sched.RequestState
	lateDue time.Duration

	// Stage 1: candidate construction.
	candArena []candidate
	cands     []*candidate

	// minGPUHourMix working set, memo and result slab. The memo serves one
	// Plan call: deadline budgets shift every round, so cross-round keys
	// almost never repeat, and clearing per plan (clear() keeps the map's
	// buckets) bounds both the map and the slab the memoized slices alias.
	mixMemo     map[mixKey][]mixEntry
	mixArena    []mixEntry
	memoProf    *costmodel.Profile
	memoVersion uint64
	// resMemo memoizes the per-resolution derivations (see resMemo) on the
	// memo epoch: reset only when the profile identity/version moves. The
	// planner asks for one once per pending request per round (late
	// partition), once more per active request (candidate survival bounds),
	// once per running request up to the first late one (lane cap) and once
	// per allocation-memo miss; a profile holds a handful of resolutions, so
	// a short scan finds the entry without hashing a key.
	resMemo []resMemo

	// Stage 2: DP state. dp/next are the rolling pair of value rows; choice
	// is the flattened back-pointer table, len(cands)×cols.
	dp, next []int64
	choice   []int16
	sels     []selection
	dpCands  []*candidate

	// Stage 3: assembly. placed is the arena all *placed pointers index
	// into; lateCand is the lane block's candidate; memberArena backs the
	// per-host continuous-batching member slices; ids backs the emitted
	// Assignment.Requests slices.
	ordered     []selection
	placed      []placed
	placedPtr   []*placed
	lateCand    candidate
	unplaced    []*candidate
	batchable   []*placed
	memberArena []*candidate
	ids         []workload.RequestID
	plan        []sched.Assignment
}

// degCfg is one profiled degree's effective cost inside minGPUHourMix.
type degCfg struct {
	k int
	t time.Duration
	g float64 // GPU-seconds per step
}

// resMemo is one resolution's memoized derivations: Profile.MinStepTime and
// buildDegCfgs, which depends only on (profile, resolution, window,
// quantization flag) — rebuilding it was most of every solveMix call.
type resMemo struct {
	res  model.Resolution
	tmin time.Duration
	cfgs []degCfg
}

// beginPlan resets the per-round buffers and memo for a fresh solve.
func (s *Scheduler) beginPlan(prof *costmodel.Profile) {
	sc := &s.scratch
	sc.active = sc.active[:0]
	sc.late = nil
	sc.cands = sc.cands[:0]
	s.ensureMemo(prof)
	clear(sc.mixMemo)
	sc.mixArena = sc.mixArena[:0]
}

// ensureMemo (re)initializes the allocation memo when it does not exist yet
// or the profile identity or version changed (on-demand profiling extends
// tables in place and bumps Version).
func (s *Scheduler) ensureMemo(prof *costmodel.Profile) {
	sc := &s.scratch
	if sc.mixMemo == nil || sc.memoProf != prof || sc.memoVersion != prof.Version() {
		sc.mixMemo = make(map[mixKey][]mixEntry)
		sc.resMemo = sc.resMemo[:0]
		sc.memoProf = prof
		sc.memoVersion = prof.Version()
	}
}

// memo returns res's memoized derivations, computing them on first use in
// the epoch.
func (s *Scheduler) memo(prof *costmodel.Profile, res model.Resolution) *resMemo {
	sc := &s.scratch
	for i := range sc.resMemo {
		if sc.resMemo[i].res == res {
			return &sc.resMemo[i]
		}
	}
	tmin, _ := prof.MinStepTime(res)
	sc.resMemo = append(sc.resMemo, resMemo{res: res, tmin: tmin, cfgs: s.buildDegCfgs(prof, res)})
	return &sc.resMemo[len(sc.resMemo)-1]
}

// minStep is the cached Profile.MinStepTime (value identical by
// construction, so planning decisions cannot shift).
func (s *Scheduler) minStep(prof *costmodel.Profile, res model.Resolution) time.Duration {
	return s.memo(prof, res).tmin
}

// degCfgs is the cached buildDegCfgs.
func (s *Scheduler) degCfgs(prof *costmodel.Profile, res model.Resolution) []degCfg {
	return s.memo(prof, res).cfgs
}

// definitelyLate mirrors sched.RequestState.DefinitelyLate through the
// tmin cache. With step caching enabled, a request is only definitely late
// if it misses its deadline even after spending its whole remaining quality
// budget at the maximum cache interval — the cache dimension turns some
// would-be drops back into packable candidates.
//
// With caching off (MaxCacheInterval ≤ 1) the projection cannot rescue
// anything, so it is skipped. cacheFeasibleAt then has a = 0 approximated
// steps, so its γ term is 0·γ·tmin = 0 for any γ in (0, 1], and it checks
// now + Remaining·tmin + τ/4 ≤ deadline. The margin τ/4 is ≥ 0, so that
// holds only if the plain check above holds, and it failed.
func (s *Scheduler) definitelyLate(prof *costmodel.Profile, st *sched.RequestState, now time.Duration) bool {
	tmin := s.minStep(prof, st.Req.Res)
	if now+time.Duration(st.Remaining)*tmin <= st.Deadline() {
		return false
	}
	if s.cfg.MaxCacheInterval <= 1 {
		return true
	}
	// Same projection (and margin) as the rescue gate in addCachedOptions: a
	// request is only kept alive for the cache dimension when a rescue could
	// actually be planned for it — relief without a plannable rescue would
	// let doomed requests linger in the active set and displace on-time work.
	total := st.Req.Steps - st.Req.SkippedSteps
	done := total - st.Remaining
	budgetLeft := st.Req.QualityBudget - st.QualityUsed
	return !s.cacheFeasibleAt(prof, st, now, st.Remaining, done, budgetLeft)
}

// partition splits ctx.Pending into the active set and the definitely-late
// requests, keeping of the latter only the lane's pick, then offers the
// pick of ctx.Late.
//
// With caching off a late verdict is stamped on the request
// (sched.LateMark) and reused while it holds (RequestState.LateHolds): the
// profile, its version and Remaining stand still and the clock has not gone
// back, so now + Remaining·tmin can only have grown and the reused verdict
// is exact. Every other request is judged again. The reuse does not assume
// lateness is monotone across executed steps: a jittered step may run
// faster than tmin, and a request whose Remaining moved is always re-judged.
// With caching on the rescue projection is not monotone in now, so nothing
// is stamped and ctx.Late is empty.
func (s *Scheduler) partition(ctx *sched.PlanContext) {
	sc := &s.scratch
	prof, now := ctx.Profile, ctx.Now
	keep := s.cfg.MaxCacheInterval <= 1
	for _, st := range ctx.Pending {
		var due time.Duration
		switch {
		case keep && st.LateHolds(prof, now):
			due = st.Late.Deadline
		case s.definitelyLate(prof, st, now):
			due = st.Deadline()
			if keep && due >= st.Req.Arrival {
				st.Late = sched.LateMark{Prof: prof, Version: prof.Version(), Remaining: st.Remaining, At: now, Deadline: due}
			}
		default:
			sc.active = append(sc.active, st)
			continue
		}
		// The lane's pick is the first minimum by deadline: partition
		// offers in pending order and a tie never displaces the pick, so
		// it heads the late set stable-sorted by deadline.
		if sc.late == nil || due < sc.lateDue {
			sc.late, sc.lateDue = st, due
		}
	}
	// ctx.Late is already judged: its pick is the first minimum of LateDue.
	// On a deadline tie with the pick from Pending, the earlier of the two
	// in (arrival, ID) order wins, as it would in one merged list.
	if i := lateHead(ctx.Late, ctx.LateDue); i >= 0 {
		due, st := ctx.LateDue[i], ctx.Late[i]
		if sc.late == nil || due < sc.lateDue || due == sc.lateDue && sched.ArrivalOrder(st, sc.late) < 0 {
			sc.late, sc.lateDue = st, due
		}
	}
}

// lateHead returns the index of the first minimum of due, the deadlines of
// late, or -1 if late is empty. late is sorted by arrival, and no mark
// deadline precedes its request's arrival (partition stamps no such mark).
// So once a request arrived no earlier than the lowest deadline so far,
// neither it nor any later request can undercut that deadline, and the scan
// stops: it reads the requests that arrived before the earliest deadline,
// not the whole late set. It checks an arrival every eighth request, which
// keeps the loop a sequential read of due.
func lateHead(late []*sched.RequestState, due []time.Duration) int {
	at, low := -1, time.Duration(0)
	for i, d := range due {
		if i%8 == 0 && at >= 0 && late[i].Req.Arrival >= low {
			break
		}
		if at < 0 || d < low {
			at, low = i, d
		}
	}
	return at
}

// putMix1 / putMix2 materialize a mix into the per-plan slab, returning a
// clipped sub-slice so later appends cannot overwrite it. The slab may grow
// (re-point) mid-plan; previously returned slices keep aliasing the old
// backing array, which stays valid for the rest of the plan.
func (sc *planScratch) putMix1(a mixEntry) []mixEntry {
	start := len(sc.mixArena)
	sc.mixArena = append(sc.mixArena, a)
	return sc.mixArena[start:len(sc.mixArena):len(sc.mixArena)]
}

func (sc *planScratch) putMix2(a, b mixEntry) []mixEntry {
	start := len(sc.mixArena)
	sc.mixArena = append(sc.mixArena, a, b)
	return sc.mixArena[start:len(sc.mixArena):len(sc.mixArena)]
}

// int64Row returns an n-length int64 buffer, reusing buf when it is large
// enough.
func int64Row(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	return buf[:n]
}

// grabCandidates returns n zeroed candidate slots with stable addresses.
func (sc *planScratch) grabCandidates(n int) []candidate {
	if cap(sc.candArena) < n {
		sc.candArena = make([]candidate, n)
	}
	sc.candArena = sc.candArena[:n]
	return sc.candArena
}
