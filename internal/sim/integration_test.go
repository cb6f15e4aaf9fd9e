package sim_test

import (
	"testing"
	"time"

	"tetriserve/internal/cache"
	"tetriserve/internal/core"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/metrics"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/sim"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

// TestSD3OnA40EndToEnd exercises the second testbed end to end: SD3 on the
// PCIe-limited 4xA40 node, TetriServe vs the best fixed degree.
func TestSD3OnA40EndToEnd(t *testing.T) {
	mdl := model.SD3()
	topo := simgpu.A40x4()
	prof := costmodel.BuildProfile(costmodel.NewEstimator(mdl, topo), costmodel.ProfilerConfig{})
	gen := func() []*workload.Request {
		return workload.Generate(workload.GeneratorConfig{
			Model: mdl, Mix: workload.UniformMix(),
			SLO: workload.NewSLOPolicy(1.3), NumRequests: 120, Seed: 21,
		})
	}
	run := func(sc sched.Scheduler) float64 {
		res, err := sim.Run(sim.Config{
			Model: mdl, Topo: topo, Scheduler: sc,
			Requests: gen(), Profile: prof, DropLateFactor: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return metrics.SAR(res)
	}
	tetri := run(core.NewScheduler(prof, topo, core.DefaultConfig()))
	best := 0.0
	for _, k := range topo.Degrees() {
		if s := run(sched.NewFixedSP(k)); s > best {
			best = s
		}
	}
	if tetri < best {
		t.Fatalf("TetriServe %.2f below best fixed %.2f on SD3/A40", tetri, best)
	}
}

// TestSchedulerInvariantsAcrossPolicies runs every policy on the same trace
// and checks cross-cutting invariants.
func TestSchedulerInvariantsAcrossPolicies(t *testing.T) {
	mdl := model.FLUX()
	topo := simgpu.H100x8()
	prof := costmodel.BuildProfile(costmodel.NewEstimator(mdl, topo), costmodel.ProfilerConfig{})
	policies := []sched.Scheduler{
		core.NewScheduler(prof, topo, core.DefaultConfig()),
		sched.NewFixedSP(1), sched.NewFixedSP(2), sched.NewFixedSP(4), sched.NewFixedSP(8),
		sched.NewRSSP(8), sched.NewEDF(), sched.NewThroughput(),
	}
	for _, sc := range policies {
		reqs := workload.Generate(workload.GeneratorConfig{
			Model: mdl, NumRequests: 60, Seed: 33, SLO: workload.NewSLOPolicy(1.2),
		})
		res, err := sim.Run(sim.Config{
			Model: mdl, Topo: topo, Scheduler: sc, Requests: reqs, Profile: prof,
		})
		if err != nil {
			t.Fatalf("%s: %v", sc.Name(), err)
		}
		if len(res.Outcomes) != 60 {
			t.Fatalf("%s: lost requests", sc.Name())
		}
		// Every block in the log uses a power-of-two group within the node.
		for _, rec := range res.Runs {
			k := rec.Group.Count()
			if k == 0 || k&(k-1) != 0 {
				t.Fatalf("%s: block group %v not a power of two", sc.Name(), rec.Group)
			}
			if int(rec.Degree) != k {
				t.Fatalf("%s: degree field %d disagrees with group %v", sc.Name(), rec.Degree, rec.Group)
			}
		}
		// Latencies bounded below by the fastest possible service time.
		for _, o := range res.Outcomes {
			tmin, _ := prof.MinStepTime(o.Res)
			if !o.Dropped && o.Latency < time.Duration(o.Steps)*tmin/2 {
				t.Fatalf("%s: request %d finished impossibly fast (%v)", sc.Name(), o.ID, o.Latency)
			}
		}
	}
}

// TestBurstyRunDeterministic: the bursty arrival process must replay
// identically under one seed through the full stack.
func TestBurstyRunDeterministic(t *testing.T) {
	mdl := model.FLUX()
	topo := simgpu.H100x8()
	prof := costmodel.BuildProfile(costmodel.NewEstimator(mdl, topo), costmodel.ProfilerConfig{})
	mk := func() *sim.Result {
		reqs := workload.Generate(workload.GeneratorConfig{
			Model: mdl, Arrivals: workload.NewBurstyArrivals(12),
			NumRequests: 50, Seed: 77, SLO: workload.NewSLOPolicy(1.5),
		})
		res, err := sim.Run(sim.Config{
			Model: mdl, Topo: topo,
			Scheduler: core.NewScheduler(prof, topo, core.DefaultConfig()),
			Requests:  reqs, Profile: prof,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	if metrics.SAR(a) != metrics.SAR(b) || a.Makespan != b.Makespan {
		t.Fatal("bursty replay diverged under identical seeds")
	}
}

// TestCacheWarmupLifecycle drives the Nirvana cache through the simulator:
// a second pass over the same prompts must hit what the first pass
// inserted.
func TestCacheWarmupLifecycle(t *testing.T) {
	mdl := model.FLUX()
	topo := simgpu.H100x8()
	prof := costmodel.BuildProfile(costmodel.NewEstimator(mdl, topo), costmodel.ProfilerConfig{})
	c := cache.New(cache.DefaultConfig())
	trimmer := &cache.Trimmer{C: c}

	reqs := workload.Generate(workload.GeneratorConfig{
		Model: mdl, NumRequests: 40, Seed: 55, SLO: workload.NewSLOPolicy(1.5),
	})
	run := func(rs []*workload.Request) {
		cloned := make([]*workload.Request, len(rs))
		for i, r := range rs {
			cp := *r
			cloned[i] = &cp
		}
		if _, err := sim.Run(sim.Config{
			Model: mdl, Topo: topo,
			Scheduler: core.NewScheduler(prof, topo, core.DefaultConfig()),
			Requests:  cloned, Profile: prof, Trimmer: trimmer,
		}); err != nil {
			t.Fatal(err)
		}
	}
	run(reqs)
	firstLen := c.Len()
	if firstLen == 0 {
		t.Fatal("first pass inserted nothing")
	}
	hitsBefore := c.HitRate()
	run(reqs) // identical prompts: everything should hit now
	if c.HitRate() <= hitsBefore {
		t.Fatalf("second pass hit rate %.2f did not improve over %.2f", c.HitRate(), hitsBefore)
	}
}

// TestHomogeneous2048Packing: two simultaneous all-cluster requests force
// the round scheduler to interleave; both must finish, and the second must
// not wait for the first to run all 50 steps (that would be pure FIFO).
func TestHomogeneous2048Packing(t *testing.T) {
	mdl := model.FLUX()
	topo := simgpu.H100x8()
	prof := costmodel.BuildProfile(costmodel.NewEstimator(mdl, topo), costmodel.ProfilerConfig{})
	mk := func(id int, arrival time.Duration) *workload.Request {
		return &workload.Request{
			ID: workload.RequestID(id), Res: model.Res2048, Steps: 50,
			Arrival: arrival, SLO: 12 * time.Second,
		}
	}
	res, err := sim.Run(sim.Config{
		Model: mdl, Topo: topo,
		Scheduler: core.NewScheduler(prof, topo, core.DefaultConfig()),
		Requests:  []*workload.Request{mk(0, 0), mk(1, 100*time.Millisecond)},
		Profile:   prof,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Outcomes {
		if !o.Met {
			t.Fatalf("request %d missed a 12s deadline: %v", o.ID, o.Latency)
		}
	}
	// Both ran with substantial parallelism.
	for _, o := range res.Outcomes {
		if o.AvgDegree < 2 {
			t.Fatalf("request %d averaged degree %.1f; expected interleaved multi-GPU service", o.ID, o.AvgDegree)
		}
	}
}
