package core

import (
	"cmp"
	"reflect"
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

	// A deadline before the arrival would break lateHead's early stop, so
	// such a request is judged late every round but never marked.
	t.Run("deadline before arrival stamps nothing", func(t *testing.T) {
		s := newTestScheduler(t)
		st := mkState(1, model.Res512, 40, now, -time.Second)
		s.Plan(mkCtx(now, 0, st))
		if slices.Contains(s.scratch.active, st) || s.scratch.late != st || st.Late != (sched.LateMark{}) {
			t.Fatalf("active %v, lane pick %v, mark %+v: want late, picked and unmarked",
				slices.Contains(s.scratch.active, st), s.scratch.late == st, st.Late)
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
// pending requests, ctx.Pending and ctx.Late merged in (arrival, ID) order:
// with caching off the reference verdict is
// sched.RequestState.DefinitelyLate, with it on the full rescue projection.
// Every plan must also equal a fresh scheduler's plan from the same
// requests all in Pending, and every held Late request must be freshly late.
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

			plans, reused, requeued, held := 0, 0, 0, 0
			bumpedAt := time.Duration(-1)
			merged := func(ctx *sched.PlanContext) []*sched.RequestState {
				all := append(slices.Clone(ctx.Pending), ctx.Late...)
				slices.SortFunc(all, sched.ArrivalOrder)
				return all
			}
			check := func(now, _ time.Duration, ctx *sched.PlanContext) {
				plans++
				held += len(ctx.Late)
				for _, st := range ctx.Late {
					if !st.LateHolds(ctx.Profile, now) || !st.DefinitelyLate(now, ctx.Profile) {
						t.Fatalf("cache %d seed %d at %v: request %d held late, mark %+v at profile version %d",
							maxCache, seed, now, st.Req.ID, st.Late, ctx.Profile.Version())
					}
				}
				var active, late []*sched.RequestState
				for _, st := range merged(ctx) {
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
			// The loop's split plans exactly like every request in Pending.
			// The fresh plan stamps only the marks the real one stamped.
			same := func(now time.Duration, ctx *sched.PlanContext, plan []sched.Assignment) {
				all := *ctx
				all.Pending, all.Late, all.LateDue = merged(ctx), nil, nil
				want := NewScheduler(prof, testTopo, cfg).Plan(&all)
				if (len(plan) != 0 || len(want) != 0) && !reflect.DeepEqual(plan, want) {
					t.Fatalf("cache %d seed %d at %v: split plan %+v, all-pending plan %+v", maxCache, seed, now, plan, want)
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
					Planned:      same,
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
			if plans == 0 || requeued == 0 || dropped == 0 || bumpedAt < 0 || (maxCache <= 1) != (reused > 0 && held > 0) {
				t.Fatalf("cache %d seed %d: scenario too tame: %d plans, %d requeues, %d drops, bump at %v, %d verdicts reused, %d held late",
					maxCache, seed, plans, requeued, dropped, bumpedAt, reused, held)
			}
			t.Logf("cache %d seed %d: %d plans, %d requeues, %d drops, %d verdicts reused, %d held late",
				maxCache, seed, plans, requeued, dropped, reused, held)
		}
	}
}

// splitLate hands ctx the split the control loop would: every request whose
// late mark holds at ctx.Now moves from Pending to Late, with its mark
// deadline in LateDue; both lists stay in (arrival, ID) order.
func splitLate(ctx *sched.PlanContext) {
	all := append(slices.Clone(ctx.Pending), ctx.Late...)
	slices.SortFunc(all, sched.ArrivalOrder)
	ctx.Pending, ctx.Late, ctx.LateDue = nil, nil, nil
	for _, st := range all {
		if st.LateHolds(ctx.Profile, ctx.Now) {
			ctx.Late = append(ctx.Late, st)
			ctx.LateDue = append(ctx.LateDue, st.Late.Deadline)
		} else {
			ctx.Pending = append(ctx.Pending, st)
		}
	}
}

// TestLanePickTieAcrossPendingAndLate: when the head of ctx.Late and a
// request judged late afresh in ctx.Pending share a deadline, the lane
// takes the one earlier in (arrival, ID) order, whichever list it is in —
// the pick and the whole plan equal those of the same requests all in
// Pending.
func TestLanePickTieAcrossPendingAndLate(t *testing.T) {
	const now = 10 * time.Second
	deadline := now - time.Second
	for _, heldFirst := range []bool{true, false} {
		// held is judged late by a first plan and keeps its mark; fresh
		// is judged at the second plan only. The earlier of the two
		// arrives at 0, the later 1 ms after, and both are due together.
		held := mkState(1, model.Res1024, 20, 0, deadline)
		fresh := mkState(2, model.Res512, 20, time.Millisecond, deadline-time.Millisecond)
		want := held
		if !heldFirst {
			held.Req.Arrival, held.Req.SLO = time.Millisecond, deadline-time.Millisecond
			fresh.Req.Arrival, fresh.Req.SLO = 0, deadline
			want = fresh
		}
		s := newTestScheduler(t)
		s.Plan(mkCtx(now, 0, held))
		ctx := mkCtx(now, testTopo.AllMask(), held, fresh)
		slices.SortFunc(ctx.Pending, sched.ArrivalOrder)
		splitLate(ctx)
		if !slices.Equal(ctx.Late, []*sched.RequestState{held}) || !slices.Equal(ctx.Pending, []*sched.RequestState{fresh}) {
			t.Fatalf("held first %v: split gives %d pending, %d late; want one each", heldFirst, len(ctx.Pending), len(ctx.Late))
		}
		plan := clonePlan(s.Plan(ctx))
		if s.scratch.late != want {
			t.Fatalf("held first %v: lane picks %d, want %d", heldFirst, s.scratch.late.Req.ID, want.Req.ID)
		}
		all := mkCtx(now, testTopo.AllMask(), held, fresh)
		slices.SortFunc(all.Pending, sched.ArrivalOrder)
		if ref := clonePlan(newTestScheduler(t).Plan(all)); !reflect.DeepEqual(plan, ref) {
			t.Fatalf("held first %v: split plan %+v, all-pending plan %+v", heldFirst, plan, ref)
		}
	}
}

// clonePlan deep-copies a plan out of the scheduler's scratch.
func clonePlan(plan []sched.Assignment) []sched.Assignment {
	out := make([]sched.Assignment, len(plan))
	for i, a := range plan {
		a.Requests = slices.Clone(a.Requests)
		out[i] = a
	}
	return out
}
