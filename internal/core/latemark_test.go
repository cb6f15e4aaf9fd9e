package core

import (
	"cmp"
	"slices"
	"testing"
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/sim"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

// privateProfile builds a profile a test may mutate (bump its version)
// without touching the package-wide testProf.
func privateProfile() *costmodel.Profile {
	return costmodel.BuildProfile(costmodel.NewEstimator(model.FLUX(), testTopo), costmodel.ProfilerConfig{})
}

// TestLateMarkInvalidation: a kept "definitely late" verdict is reused only
// while every input it was reached at stands still, one case per rule. Each
// case forges or leaves a late mark on a request that is in fact on time, so
// a reused mark shows as the request missing from the active set; the first
// two cases are the controls that show the mark is honoured at all.
func TestLateMarkInvalidation(t *testing.T) {
	const now = 10 * time.Second
	cases := []struct {
		name  string
		cache int
		// edit moves one input after the mark was stamped at now; it
		// returns the instant to plan at.
		edit   func(st *sched.RequestState, prof *costmodel.Profile) time.Duration
		reused bool
	}{
		{"unchanged", 1, func(*sched.RequestState, *costmodel.Profile) time.Duration { return now }, true},
		{"later now", 1, func(*sched.RequestState, *costmodel.Profile) time.Duration { return now + time.Second }, true},
		{"remaining moved", 1, func(st *sched.RequestState, _ *costmodel.Profile) time.Duration {
			st.Remaining--
			return now
		}, false},
		{"version bumped", 1, func(_ *sched.RequestState, prof *costmodel.Profile) time.Duration {
			prof.SetCachedStepRelCost(prof.CachedStepRelCost())
			return now
		}, false},
		{"other profile", 1, func(st *sched.RequestState, _ *costmodel.Profile) time.Duration {
			st.Late.Prof = privateProfile()
			return now
		}, false},
		{"now before the mark", 1, func(*sched.RequestState, *costmodel.Profile) time.Duration { return now - time.Millisecond }, false},
		{"caching on", 4, func(*sched.RequestState, *costmodel.Profile) time.Duration { return now }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prof := privateProfile()
			cfg := DefaultConfig()
			cfg.MaxCacheInterval = tc.cache
			s := NewScheduler(prof, testTopo, cfg)
			st := mkState(1, model.Res512, 10, 0, time.Minute)
			st.Late = sched.LateMark{Prof: prof, Version: prof.Version(), Remaining: st.Remaining, At: now, Deadline: st.Deadline()}
			ctx := mkCtx(tc.edit(st, prof), testTopo.AllMask(), st)
			ctx.Profile = prof
			s.Plan(ctx)
			if active := slices.Contains(s.scratch.active, st); active == tc.reused {
				t.Fatalf("in the active set: %v; want %v (mark reused: %v)", active, !tc.reused, tc.reused)
			}
		})
	}

	// A real verdict: judged late with 40 steps left, then on time once a
	// block has run 39 of them, at the same instant.
	t.Run("remaining moved after a real verdict", func(t *testing.T) {
		s := newTestScheduler(t)
		tmin, _ := testProf.MinStepTime(model.Res512)
		st := mkState(1, model.Res512, 40, 0, now+10*tmin)
		ctx := mkCtx(now, 0, st) // no free GPU: nothing runs, only the partition
		s.Plan(ctx)
		want := sched.LateMark{Prof: testProf, Version: testProf.Version(), Remaining: 40, At: now, Deadline: st.Deadline()}
		if slices.Contains(s.scratch.active, st) || st.Late != want {
			t.Fatalf("40 steps left: active %v, mark %+v, want late with mark %+v",
				slices.Contains(s.scratch.active, st), st.Late, want)
		}
		st.Remaining = 1
		s.Plan(ctx)
		if !slices.Contains(s.scratch.active, st) {
			t.Fatal("1 step left: still judged late; the mark outlived its Remaining")
		}
	})

	// Caching on: a late request is judged by the rescue projection, which
	// is not monotone in now, so no mark is stamped.
	t.Run("caching on stamps nothing", func(t *testing.T) {
		s := newTestScheduler(t, func(c *Config) { c.MaxCacheInterval = 4 })
		st := mkState(1, model.Res512, 40, 0, time.Millisecond)
		s.Plan(mkCtx(now, 0, st))
		if slices.Contains(s.scratch.active, st) || st.Late != (sched.LateMark{}) {
			t.Fatalf("active %v, mark %+v: want late and unmarked", slices.Contains(s.scratch.active, st), st.Late)
		}
	})
}

// TestLateMarksMatchFreshVerdicts runs overloaded simulations with drops,
// fault requeues, resize preemptions and a mid-run profile version bump,
// once with caching off and once with it on. At every plan the planner's
// active set and lane pick must equal a fresh re-derivation from the
// pending queue: with caching off the reference verdict is
// sched.RequestState.DefinitelyLate, with it on the full rescue projection.
func TestLateMarksMatchFreshVerdicts(t *testing.T) {
	for _, maxCache := range []int{1, 4} {
		for seed := uint64(1); seed <= 3; seed++ {
			prof := privateProfile()
			cfg := DefaultConfig()
			cfg.MaxCacheInterval = maxCache
			s := NewScheduler(prof, testTopo, cfg)
			reqs := workload.Generate(workload.GeneratorConfig{
				Model:       model.FLUX(),
				Mix:         workload.UniformMix(),
				Arrivals:    workload.PoissonArrivals{PerMinute: 60},
				SLO:         workload.NewSLOPolicy(1.0),
				NumRequests: 300,
				Seed:        seed,
			})
			for i, r := range reqs {
				if maxCache > 1 && i%2 == 0 {
					r.QualityBudget = r.Steps / 2
				}
			}

			plans, reused, requeued := 0, 0, 0
			bumpedAt := time.Duration(-1)
			check := func(now, _ time.Duration, ctx *sched.PlanContext) {
				plans++
				var active, late []*sched.RequestState
				for _, st := range ctx.Pending {
					fresh := st.DefinitelyLate(now, ctx.Profile)
					if maxCache > 1 {
						fresh = s.definitelyLate(ctx.Profile, st, now)
					}
					if !fresh {
						active = append(active, st)
						continue
					}
					late = append(late, st)
					if maxCache <= 1 && st.Late.At < now {
						reused++
					}
				}
				if !slices.Equal(s.scratch.active, active) {
					t.Fatalf("cache %d seed %d at %v: planner keeps %d active, fresh verdicts give %d",
						maxCache, seed, now, len(s.scratch.active), len(active))
				}
				slices.SortStableFunc(late, func(a, b *sched.RequestState) int {
					return cmp.Compare(a.Deadline(), b.Deadline())
				})
				var want *sched.RequestState
				if len(late) > 0 {
					want = late[0]
				}
				if s.scratch.late != want {
					t.Fatalf("cache %d seed %d at %v: lane pick differs from the stable sort's head", maxCache, seed, now)
				}
			}
			res, err := sim.Run(sim.Config{
				Model: model.FLUX(), Topo: testTopo, Profile: prof, Requests: reqs,
				Scheduler:      s,
				DropLateFactor: 3,
				Faults: []simgpu.Fault{
					{GPU: 1, FailAt: 40 * time.Second, RecoverAt: 90 * time.Second},
					{GPU: 6, FailAt: 150 * time.Second},
				},
				Resizes: []simgpu.Resize{
					{At: 60 * time.Second, NewMask: simgpu.MaskRange(0, 4)},
					{At: 120 * time.Second, NewMask: simgpu.MaskRange(0, 8)},
				},
				Hooks: control.Hooks{
					RoundTick: func(_, now time.Duration) {
						if bumpedAt < 0 && now >= 100*time.Second {
							prof.SetCachedStepRelCost(0.5)
							bumpedAt = now
						}
					},
					PlanComputed: check,
					Requeued:     func(time.Duration, workload.RequestID, control.RequeueCause) { requeued++ },
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			dropped := 0
			for _, o := range res.Outcomes {
				if o.Dropped {
					dropped++
				}
			}
			if plans == 0 || requeued == 0 || dropped == 0 || bumpedAt < 0 || (maxCache <= 1 && reused == 0) {
				t.Fatalf("cache %d seed %d: scenario too tame: %d plans, %d requeues, %d drops, bump at %v, %d verdicts reused",
					maxCache, seed, plans, requeued, dropped, bumpedAt, reused)
			}
			t.Logf("cache %d seed %d: %d plans, %d requeues, %d drops, %d verdicts reused",
				maxCache, seed, plans, requeued, dropped, reused)
		}
	}
}
