package core

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"

	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/stats"
	"tetriserve/internal/workload"
)

// lateBacklogCtx is a seeded round shaped like a deep overloaded queue: depth
// requests of the Uniform mix arriving at 60/min, none started, planned at
// the last arrival on an idle 8-GPU cluster, so all but the newest few are
// definitely late.
func lateBacklogCtx(depth int) *sched.PlanContext {
	reqs := workload.Generate(workload.GeneratorConfig{
		Model:       model.FLUX(),
		Mix:         workload.UniformMix(),
		Arrivals:    workload.PoissonArrivals{PerMinute: 60},
		NumRequests: depth,
		Seed:        1,
	})
	pending := make([]*sched.RequestState, len(reqs))
	for i, r := range reqs {
		pending[i] = &sched.RequestState{Req: r, Remaining: r.Steps}
	}
	return mkCtx(reqs[len(reqs)-1].Arrival, testTopo.AllMask(), pending...)
}

// TestLateLaneMatchesStableSortPrefix: the best-effort lane's one pick is
// the head of the late set stable-sorted by deadline — the first minimum in
// pending order — whenever the lane is free, and nothing when a late block
// runs or no GPU is free.
func TestLateLaneMatchesStableSortPrefix(t *testing.T) {
	rng := stats.NewRNG(33)
	resList := model.StandardResolutions()
	now := 100 * time.Second
	for trial := 0; trial < 400; trial++ {
		s := newTestScheduler(t)
		// Deadlines come from four values shared across resolutions, so
		// most picks are decided by a tie.
		n := rng.Intn(40)
		pending := make([]*sched.RequestState, 0, n)
		for i := 0; i < n; i++ {
			arrival := time.Duration(i) * time.Millisecond
			deadline := time.Duration(1+rng.Intn(4)) * time.Second
			pending = append(pending, mkState(i+1, resList[rng.Intn(len(resList))],
				1+rng.Intn(50), arrival, deadline-arrival))
		}
		// An already-running late block holds the lane.
		running := make([]*sched.RequestState, rng.Intn(2))
		for i := range running {
			running[i] = mkState(1000+i, resList[rng.Intn(len(resList))], 10, 0, time.Second)
		}
		// 0..8 free GPUs, at random positions.
		gpus := []simgpu.GPUID{0, 1, 2, 3, 4, 5, 6, 7}
		rng.Shuffle(len(gpus), func(i, j int) { gpus[i], gpus[j] = gpus[j], gpus[i] })
		free := simgpu.MaskOf(gpus[:trial%9]...)

		ctx := mkCtx(now, free, pending...)
		ctx.Running = running
		var got []workload.RequestID
		for _, a := range s.Plan(ctx) {
			if a.BestEffort {
				got = append(got, a.Requests[0])
			}
		}

		ref := slices.Clone(pending)
		slices.SortStableFunc(ref, func(a, b *sched.RequestState) int {
			return cmp.Compare(a.Deadline(), b.Deadline())
		})
		picks := 0
		if len(running) == 0 && free != 0 && len(ref) > 0 {
			picks = 1
		}
		want := make([]workload.RequestID, picks)
		for i := range want {
			want[i] = ref[i].Req.ID
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d late, %d running, %d free): lane picked %v, stable sort gives %v",
				trial, n, len(running), free.Count(), got, want)
		}
	}
}

// TestLateHeadIsFirstMinimum: lateHead's early stop never changes the
// answer. Over late lists sorted by arrival whose deadlines are at or after
// their arrivals (zero SLOs and ties included), it returns the first minimum
// of the deadlines, as a full scan does.
func TestLateHeadIsFirstMinimum(t *testing.T) {
	rng := stats.NewRNG(35)
	deep, stopped := 0, 0
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(100)
		late := make([]*sched.RequestState, n)
		due := make([]time.Duration, n)
		arrival := time.Duration(0)
		for i := range late {
			// SLOs span many arrivals, so a later request often
			// undercuts an earlier one's deadline; nanosecond steps put
			// deadlines right at the stop boundary.
			arrival += []time.Duration{0, 1, time.Second, 2 * time.Second}[rng.Intn(4)]
			slo := time.Duration(rng.Intn(40))*time.Second + time.Duration(rng.Intn(2))
			late[i] = mkState(i+1, model.Res512, 10, arrival, slo)
			due[i] = late[i].Deadline()
		}
		want := -1
		for i, d := range due {
			if want < 0 || d < due[want] {
				want = i
			}
		}
		if got := lateHead(late, due); got != want {
			t.Fatalf("trial %d (%d late): lateHead = %d, first minimum at %d", trial, n, got, want)
		}
		if want < 0 {
			continue
		}
		if want >= 8 {
			deep++
		}
		if late[n-1].Req.Arrival >= due[want]+8*time.Second {
			stopped++
		}
	}
	if deep == 0 || stopped == 0 {
		t.Fatalf("sample too tame: %d minima past the first check, %d scans that may stop early", deep, stopped)
	}

	// At the boundary: the ninth request arrives 1 ns before the lowest
	// deadline so far and is due at once, so the scan must not stop there.
	late, due := make([]*sched.RequestState, 9), make([]time.Duration, 9)
	for i := range late {
		late[i] = mkState(i+1, model.Res512, 10, 0, 20*time.Second)
	}
	late[0].Req.SLO = 10 * time.Second
	late[8].Req.Arrival, late[8].Req.SLO = 10*time.Second-1, 0
	for i, st := range late {
		due[i] = st.Deadline()
	}
	if got := lateHead(late, due); got != 8 {
		t.Fatalf("boundary: lateHead = %d, first minimum at 8", got)
	}
}

// TestDefinitelyLateCacheOffMatchesRescueProjection: with caching off the
// planner skips the cache-rescue projection for plain-late requests; the
// short-circuited answer must equal the full projection's.
func TestDefinitelyLateCacheOffMatchesRescueProjection(t *testing.T) {
	rng := stats.NewRNG(34)
	resList := model.StandardResolutions()
	s := newTestScheduler(t)
	late, onTime := 0, 0
	for i := 0; i < 4000; i++ {
		res := resList[rng.Intn(len(resList))]
		tmin, _ := testProf.MinStepTime(res)
		steps := 1 + rng.Intn(200)
		st := mkState(i+1, res, 1+rng.Intn(steps), 0, 0)
		st.Req.Steps = steps
		st.Req.QualityBudget = rng.Intn(steps + 1)
		st.QualityUsed = rng.Intn(st.Req.QualityBudget + 1)
		now := time.Duration(rng.Intn(10_000)) * time.Millisecond
		// The deadline lands within a round of the plain bound, margin
		// cases included.
		bound := now + time.Duration(st.Remaining)*tmin
		st.Req.SLO = bound - s.tau + time.Duration(rng.Intn(int(2*s.tau)))

		done := st.Req.Steps - st.Req.SkippedSteps - st.Remaining
		want := bound > st.Deadline() &&
			!s.cacheFeasibleAt(testProf, st, now, st.Remaining, done, st.Req.QualityBudget-st.QualityUsed)
		if got := s.definitelyLate(testProf, st, now); got != want {
			t.Fatalf("state %d: definitelyLate = %v, rescue projection says %v", i, got, want)
		}
		if want {
			late++
		} else {
			onTime++
		}
	}
	if late == 0 || onTime == 0 {
		t.Fatalf("sample not mixed: %d late, %d on time", late, onTime)
	}

	// With caching on, the projection still runs: a state late at plain
	// service but rescuable at interval 4 is relieved only there.
	st := mkState(1, model.Res1024, 1, 0, 0)
	reshapeRescue(st, 4)
	if !s.definitelyLate(testProf, st, 0) {
		t.Fatal("cache off: a plain-late state is not definitely late")
	}
	cached := newTestScheduler(t, func(c *Config) { c.MaxCacheInterval = 4 })
	if cached.definitelyLate(testProf, st, 0) {
		t.Fatal("cache on: a rescuable state is definitely late; the projection was skipped")
	}
}

// BenchmarkPlanLateBacklog times Plan over a deep, mostly definitely late
// queue: the partition, the best-effort lane and the DP over the few active
// requests. steady is a serving loop's view: the clock advances by τ each
// round over the same states, so the late marks of earlier rounds hold, and
// the requests whose marks hold sit in ctx.Late, where the control loop
// puts them after each plan. cold restores every state to its unjudged
// original before each round (timer stopped), so every request is judged
// afresh from ctx.Pending.
func BenchmarkPlanLateBacklog(b *testing.B) {
	for _, depth := range []int{64, 672, 4096} {
		b.Run(fmt.Sprintf("depth=%d/steady", depth), func(b *testing.B) {
			s := NewScheduler(testProf, testTopo, DefaultConfig())
			ctx := lateBacklogCtx(depth)
			for range 2 {
				s.Plan(ctx)
				splitLate(ctx)
				ctx.Now += s.RoundDuration()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx.Now += s.RoundDuration()
				s.Plan(ctx)
			}
		})
		b.Run(fmt.Sprintf("depth=%d/cold", depth), func(b *testing.B) {
			s := NewScheduler(testProf, testTopo, DefaultConfig())
			ctx := lateBacklogCtx(depth)
			orig := make([]sched.RequestState, len(ctx.Pending))
			for i, st := range ctx.Pending {
				orig[i] = *st
			}
			s.Plan(ctx)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j, st := range ctx.Pending {
					*st = orig[j]
				}
				b.StartTimer()
				s.Plan(ctx)
			}
		})
	}
}
