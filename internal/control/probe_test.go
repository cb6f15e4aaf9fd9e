package control

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"tetriserve/internal/clock"
	"tetriserve/internal/core"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/engine"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

func newProbeLoop(t *testing.T) (*Loop, *clock.Virtual, *core.Scheduler) {
	t.Helper()
	mdl := model.FLUX()
	topo := simgpu.H100x8()
	prof := costmodel.BuildProfile(costmodel.NewEstimator(mdl, topo), costmodel.ProfilerConfig{})
	sc := core.NewScheduler(prof, topo, core.DefaultConfig())
	clk := clock.NewVirtual()
	cfg := testConfig(sc)
	cfg.Profile = prof
	l, err := New(cfg, clk)
	if err != nil {
		t.Fatal(err)
	}
	return l, clk, sc
}

func TestProbeIdleLoop(t *testing.T) {
	l, _, _ := newProbeLoop(t)

	f, err := l.ProbeFeasibility(model.Res512, 0, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Winnable {
		t.Fatalf("idle 8×H100 pool must win a 30s SLO at 512²: %+v", f)
	}
	if f.Pending != 0 || f.Running != 0 || f.QueueGPUSeconds != 0 {
		t.Fatalf("idle loop reported backlog: %+v", f)
	}
	if f.HealthyGPUs != 8 || f.FreeGPUs != 8 {
		t.Fatalf("capacity wrong: %+v", f)
	}
	if f.Slack <= 0 || f.Slack != f.Deadline-f.ProjectedFinish {
		t.Fatalf("slack inconsistent: %+v", f)
	}
	if f.ServiceGPUSeconds <= 0 || f.MinStepTime <= 0 || f.MinStepDegree <= 0 {
		t.Fatalf("cost fields unset: %+v", f)
	}

	// An SLO shorter than best-case service time can never be won.
	tight := time.Duration(model.FLUX().DefaultSteps) * f.MinStepTime / 2
	f2, err := l.ProbeFeasibility(model.Res512, 0, tight)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Winnable {
		t.Fatalf("sub-service SLO %v reported winnable: %+v", tight, f2)
	}
	if f2.Slack >= 0 {
		t.Fatalf("losing probe must carry negative slack: %+v", f2)
	}
}

func TestProbeUnknownResolutionErrors(t *testing.T) {
	l, _, _ := newProbeLoop(t)
	if _, err := l.ProbeFeasibility(model.Resolution{W: 48, H: 48}, 0, time.Second); err == nil {
		t.Fatal("want error for unprofiled resolution")
	}
}

func TestProbeStepsDefault(t *testing.T) {
	l, _, _ := newProbeLoop(t)
	def, err := l.ProbeFeasibility(model.Res512, 0, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := l.ProbeFeasibility(model.Res512, model.FLUX().DefaultSteps, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if def.ProjectedFinish != explicit.ProjectedFinish {
		t.Fatalf("steps<=0 must default to the model's count: %v vs %v",
			def.ProjectedFinish, explicit.ProjectedFinish)
	}
}

func TestProbeBacklogDelaysProjection(t *testing.T) {
	l, _, _ := newProbeLoop(t)
	idle, _ := l.ProbeFeasibility(model.Res512, 0, 30*time.Second)

	for i := 0; i < 6; i++ {
		l.Arrive(&workload.Request{
			ID: workload.RequestID(100 + i), Res: model.Res1024,
			Steps: 50, SLO: 30 * time.Second,
		})
	}
	loaded, _ := l.ProbeFeasibility(model.Res512, 0, 30*time.Second)
	if loaded.QueueGPUSeconds <= idle.QueueGPUSeconds {
		t.Fatalf("backlog not reflected: %f ≤ %f", loaded.QueueGPUSeconds, idle.QueueGPUSeconds)
	}
	if loaded.ProjectedFinish <= idle.ProjectedFinish {
		t.Fatalf("projection must move out under load: %v ≤ %v",
			loaded.ProjectedFinish, idle.ProjectedFinish)
	}
}

func TestProbeFullyFailedPoolNeverWins(t *testing.T) {
	l, _, _ := newProbeLoop(t)
	l.Fail(simgpu.Mask(1<<8 - 1))
	f, err := l.ProbeFeasibility(model.Res512, 0, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if f.Winnable || f.HealthyGPUs != 0 {
		t.Fatalf("dead pool reported winnable: %+v", f)
	}
	if f.Slack >= 0 {
		t.Fatalf("dead pool must report lateness: %+v", f)
	}
}

// drain drives a loop to completion, optionally probing before every event
// dispatch. It returns the finalized result.
func drain(t *testing.T, l *Loop, clk *clock.Virtual, probe func()) *Result {
	t.Helper()
	for guard := 0; l.Unfinished() > 0; guard++ {
		if guard > 2_000_000 {
			t.Fatal("drain did not converge")
		}
		ev := l.NextEvent()
		if ev == nil {
			t.Fatalf("deadlock: %d unfinished, no events", l.Unfinished())
		}
		if probe != nil {
			probe()
		}
		clk.Advance(ev.At)
		if err := l.Dispatch(l.PopEvent()); err != nil {
			t.Fatal(err)
		}
	}
	return l.Finalize()
}

// TestProbeNeverMutatesLoopState is the router-facing no-mutation property:
// two identical loops replay the same trace, one interleaving feasibility
// probes of randomized shapes and Digest snapshots before every event; every outcome, run record
// count, plan-call count, and the planner's DP row counters must be
// bit-identical. Pre-fix probes that planned speculatively (or touched the
// decode queue) diverge here.
func TestProbeNeverMutatesLoopState(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []model.Resolution{model.Res256, model.Res512, model.Res1024}

	trace := workload.Generate(workload.GeneratorConfig{
		Model: model.FLUX(), Seed: 3, NumRequests: 40,
		Arrivals: workload.NewBurstyArrivals(30),
	})

	build := func() (*Loop, *clock.Virtual, *core.Scheduler) {
		l, clk, sc := newProbeLoop(t)
		for _, r := range trace {
			cp := *r
			l.ScheduleArrival(&cp)
		}
		return l, clk, sc
	}

	quiet, qclk, qsc := build()
	probed, pclk, psc := build()

	res1 := drain(t, quiet, qclk, nil)
	res2 := drain(t, probed, pclk, func() {
		res := shapes[rng.Intn(len(shapes))]
		slo := time.Duration(rng.Intn(20_000)) * time.Millisecond
		if _, err := probed.ProbeFeasibility(res, 0, slo); err != nil {
			t.Fatal(err)
		}
		// A digest is a snapshot, and projecting it touches nothing either.
		if _, err := probed.Digest().Project(ProbeClass{Res: res, SLO: slo}); err != nil {
			t.Fatal(err)
		}
	})

	if len(res1.Outcomes) != len(res2.Outcomes) {
		t.Fatalf("outcome counts diverged: %d vs %d", len(res1.Outcomes), len(res2.Outcomes))
	}
	for i := range res1.Outcomes {
		if res1.Outcomes[i] != res2.Outcomes[i] {
			t.Fatalf("outcome %d diverged:\n  quiet:  %+v\n  probed: %+v",
				i, res1.Outcomes[i], res2.Outcomes[i])
		}
	}
	if res1.PlanCalls != res2.PlanCalls || len(res1.Runs) != len(res2.Runs) ||
		res1.Makespan != res2.Makespan || res1.GPUBusySeconds != res2.GPUBusySeconds {
		t.Fatalf("aggregate state diverged:\n  quiet:  plans=%d runs=%d makespan=%v busy=%f\n  probed: plans=%d runs=%d makespan=%v busy=%f",
			res1.PlanCalls, len(res1.Runs), res1.Makespan, res1.GPUBusySeconds,
			res2.PlanCalls, len(res2.Runs), res2.Makespan, res2.GPUBusySeconds)
	}
	if qsc.Warm() != psc.Warm() {
		t.Fatalf("planner DP row counters diverged (a probe planned): %+v vs %+v", qsc.Warm(), psc.Warm())
	}
}

// TestProbeAgreesWithSingleShotOutcome checks calibration: for randomized
// single-shot submissions on an idle pool, the probe's Winnable verdict must
// agree with the served outcome's Met bit on at least 95% of trials. The
// probe is an optimistic bound (decode excluded), so the residual band is
// one-sided: a Winnable=false verdict must never see the request win.
func TestProbeAgreesWithSingleShotOutcome(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []model.Resolution{model.Res256, model.Res512, model.Res1024}

	const trials = 200
	agree := 0
	for i := 0; i < trials; i++ {
		res := shapes[rng.Intn(len(shapes))]
		// SLOs spanning hopeless to comfortable; the decision threshold for a
		// single request sits somewhere inside this range.
		slo := time.Duration(200+rng.Intn(20_000)) * time.Millisecond

		l, clk, _ := newProbeLoop(t)
		f, err := l.ProbeFeasibility(res, 0, slo)
		if err != nil {
			t.Fatal(err)
		}
		r := &workload.Request{
			ID: 1, Res: res, Steps: model.FLUX().DefaultSteps, Arrival: 0, SLO: slo,
		}
		l.ScheduleArrival(r)
		out := drain(t, l, clk, nil)
		if len(out.Outcomes) != 1 {
			t.Fatalf("trial %d: %d outcomes", i, len(out.Outcomes))
		}
		met := out.Outcomes[0].Met
		if f.Winnable == met {
			agree++
		} else if !f.Winnable && met {
			// Optimism is allowed; pessimism (reject a winnable request) would
			// make the router turn away servable traffic.
			t.Fatalf("trial %d (%v, slo %v): probe said unwinnable but request met its SLO",
				i, res, slo)
		}
	}
	if ratio := float64(agree) / trials; ratio < 0.95 {
		t.Fatalf("probe agreement %.1f%% < 95%%", 100*ratio)
	}
}

// TestProbeClassesMatchesProbeFeasibility: the single backlog walk must be
// invisible. Over random loop states — pending and running work, a shrunk
// capacity, failed GPUs up to the whole pool, the step cache on and off —
// every class ProbeClasses fills equals, field for field, what a separate
// ProbeFeasibility call returns at the same instant.
func TestProbeClassesMatchesProbeFeasibility(t *testing.T) {
	mdl := model.FLUX()
	topo := simgpu.H100x8()
	prof := costmodel.BuildProfile(costmodel.NewEstimator(mdl, topo), costmodel.ProfilerConfig{})
	shapes := model.StandardResolutions()
	rng := rand.New(rand.NewSource(27))
	var saw struct{ pending, running, shrunk, dead, cached bool }

	for trial := 0; trial < 60; trial++ {
		coreCfg := core.DefaultConfig()
		if trial%2 == 1 {
			coreCfg.MaxCacheInterval = 4
		}
		engCfg := engine.DefaultConfig()
		if trial%3 == 1 {
			engCfg.Capacity = simgpu.MaskRange(0, 1+rng.Intn(4))
		}
		clk := clock.NewVirtual()
		l, err := New(Config{
			Model: mdl, Topo: topo, Profile: prof, Engine: engCfg,
			Scheduler: core.NewScheduler(prof, topo, coreCfg),
		}, clk)
		if err != nil {
			t.Fatal(err)
		}
		trace := workload.Generate(workload.GeneratorConfig{
			Model: mdl, Seed: uint64(trial + 1), NumRequests: 10 + rng.Intn(60),
			Arrivals: workload.NewBurstyArrivals(60 + float64(rng.Intn(240))),
		})
		for _, r := range trace {
			l.ScheduleArrival(r)
		}
		for n := rng.Intn(400); n > 0 && l.Unfinished() > 0; n-- {
			ev := l.PopEvent()
			if ev == nil {
				break
			}
			clk.Advance(ev.At)
			if err := l.Dispatch(ev); err != nil {
				t.Fatal(err)
			}
		}
		switch trial % 5 {
		case 2:
			l.Fail(simgpu.MaskOf(simgpu.GPUID(rng.Intn(topo.N))))
		case 4:
			l.Fail(topo.AllMask())
		}

		classes := make([]ProbeClass, 1+rng.Intn(6))
		for i := range classes {
			classes[i] = ProbeClass{
				Res:   shapes[rng.Intn(len(shapes))],
				Steps: rng.Intn(3) * 25, // 0 defaults to the model's count
				SLO:   time.Duration(rng.Intn(40_000)) * time.Millisecond,
			}
		}
		got := make([]Feasibility, len(classes))
		if err := l.ProbeClasses(classes, got); err != nil {
			t.Fatal(err)
		}
		for i, c := range classes {
			want, err := l.ProbeFeasibility(c.Res, c.Steps, c.SLO)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("trial %d class %d %+v:\n  ProbeClasses:     %+v\n  ProbeFeasibility: %+v",
					trial, i, c, got[i], want)
			}
		}
		f := got[0]
		saw.pending = saw.pending || f.Pending > 0
		saw.running = saw.running || f.Running > 0
		saw.shrunk = saw.shrunk || (f.HealthyGPUs > 0 && f.HealthyGPUs < topo.N)
		saw.dead = saw.dead || f.HealthyGPUs == 0
		saw.cached = saw.cached || f.MaxCacheInterval > 1
	}
	if !saw.pending || !saw.running || !saw.shrunk || !saw.dead || !saw.cached {
		t.Fatalf("sweep missed a state: %+v", saw)
	}
}

// referenceProbe is the feasibility projection written out directly against
// loop state, as ProbeFeasibility computed it before the digest existed:
// the oracle the digest path must reproduce to the nanosecond, with the same
// float operations in the same order.
func referenceProbe(l *Loop, c ProbeClass) (Feasibility, error) {
	if !l.cfg.Profile.Has(c.Res) {
		return Feasibility{}, fmt.Errorf("control: %v not in profile", c.Res)
	}
	now := l.clk.Now()
	healthy := l.eng.HealthyGPUs()
	free := l.eng.Free()
	var backlog float64
	pending := 0
	if healthy > 0 {
		queue := append(slices.Clone(l.queue), l.late...)
		slices.SortFunc(queue, sched.ArrivalOrder)
		pending = len(queue)
		for _, st := range queue {
			backlog += float64(st.Remaining) * l.minGPUSecondsWithin(st.Req.Res, healthy)
		}
		for _, st := range l.running {
			if st.Remaining > 0 {
				backlog += float64(st.Remaining) * l.minGPUSecondsWithin(st.Req.Res, healthy)
			}
		}
	}
	var boundary time.Duration
	if l.roundBased && !(l.eager && free != 0) {
		boundary = l.tau
	}
	steps := c.Steps
	if steps <= 0 {
		steps = l.cfg.Model.DefaultSteps
	}
	f := Feasibility{
		Now: now, Deadline: now + c.SLO,
		HealthyGPUs: healthy, FreeGPUs: free.Count(), Running: len(l.running),
		MaxCacheInterval: l.maxCacheInterval(),
	}
	f.MinStepTime, f.MinStepDegree = l.minStepTimeWithin(c.Res, healthy)
	f.ServiceGPUSeconds = float64(steps) * l.minGPUSecondsWithin(c.Res, healthy)
	if healthy <= 0 {
		f.ProjectedStart = f.Deadline
		f.ProjectedFinish = f.Deadline + c.SLO
		f.Slack = f.Deadline - f.ProjectedFinish
		f.CachedFinish = f.ProjectedFinish
		return f, nil
	}
	f.Pending = pending
	f.QueueGPUSeconds = backlog
	queueWait := time.Duration(backlog / float64(healthy) * float64(time.Second))
	f.ProjectedStart = now + boundary + queueWait
	f.ProjectedFinish = f.ProjectedStart + time.Duration(steps)*f.MinStepTime + l.dispatchDelay()
	f.Winnable = f.ProjectedFinish <= f.Deadline
	f.Slack = f.Deadline - f.ProjectedFinish
	f.CachedFinish = f.ProjectedFinish
	f.CachedWinnable = f.Winnable
	if f.MaxCacheInterval > 1 {
		if a := sched.ApproxSteps(steps-2*sched.CacheProtectedSteps, f.MaxCacheInterval); a > 0 {
			gamma := l.cfg.Profile.CachedStepRelCost()
			service := time.Duration(steps-a)*f.MinStepTime +
				time.Duration(float64(a)*gamma*float64(f.MinStepTime))
			f.CachedFinish = f.ProjectedStart + service + l.dispatchDelay()
			f.CachedWinnable = f.CachedFinish <= f.Deadline
		}
	}
	return f, nil
}

// TestDigestProjectMatchesReferenceProbe: over random loop states — pending
// and running work, shrunk capacity, failed GPUs up to the whole pool, cache
// interval 4, eager admission on and off, a profile extended mid-run —
// Digest().Project equals the direct projection field for field, to the
// nanosecond, and ProbeFeasibility agrees. A shape the profile lacks is an
// error on both paths.
func TestDigestProjectMatchesReferenceProbe(t *testing.T) {
	mdl := model.FLUX()
	topo := simgpu.H100x8()
	est := costmodel.NewEstimator(mdl, topo)
	shapes := append(model.StandardResolutions(), model.Resolution{W: 48, H: 48})
	extra := model.Resolution{W: 640, H: 640}
	rng := rand.New(rand.NewSource(37))
	var saw struct{ pending, running, shrunk, dead, cached, lazy, extended, unknown bool }

	for trial := 0; trial < 80; trial++ {
		prof := costmodel.BuildProfile(est, costmodel.ProfilerConfig{})
		coreCfg := core.DefaultConfig()
		if trial%2 == 1 {
			coreCfg.MaxCacheInterval = 4
		}
		coreCfg.EagerAdmission = trial%4 < 2
		engCfg := engine.DefaultConfig()
		if trial%3 == 1 {
			engCfg.Capacity = simgpu.MaskRange(0, 1+rng.Intn(4))
		}
		clk := clock.NewVirtual()
		l, err := New(Config{
			Model: mdl, Topo: topo, Profile: prof, Engine: engCfg,
			Scheduler: core.NewScheduler(prof, topo, coreCfg),
		}, clk)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range workload.Generate(workload.GeneratorConfig{
			Model: mdl, Seed: uint64(trial + 1), NumRequests: 10 + rng.Intn(60),
			Arrivals: workload.NewBurstyArrivals(60 + float64(rng.Intn(240))),
		}) {
			l.ScheduleArrival(r)
		}
		check := func(stage string) {
			t.Helper()
			d := l.Digest()
			for _, res := range append(shapes, extra) {
				c := ProbeClass{
					Res:   res,
					Steps: rng.Intn(3) * 25,
					SLO:   time.Duration(rng.Intn(40_000_000)) * time.Microsecond,
				}
				want, werr := referenceProbe(l, c)
				got, gerr := d.Project(c)
				probed, perr := l.ProbeFeasibility(c.Res, c.Steps, c.SLO)
				if (werr != nil) != (gerr != nil) || (werr != nil) != (perr != nil) {
					t.Fatalf("trial %d %s %v: errors differ: reference %v, digest %v, probe %v",
						trial, stage, res, werr, gerr, perr)
				}
				if werr != nil {
					saw.unknown = true
					continue
				}
				if got != want || probed != want {
					t.Fatalf("trial %d %s %+v:\n  reference: %+v\n  digest:    %+v\n  probe:     %+v",
						trial, stage, c, want, got, probed)
				}
				saw.pending = saw.pending || want.Pending > 0
				saw.running = saw.running || want.Running > 0
				saw.shrunk = saw.shrunk || (want.HealthyGPUs > 0 && want.HealthyGPUs < topo.N)
				saw.dead = saw.dead || want.HealthyGPUs == 0
				saw.cached = saw.cached || want.CachedFinish < want.ProjectedFinish
				saw.lazy = saw.lazy || (!coreCfg.EagerAdmission && want.FreeGPUs > 0)
				saw.extended = saw.extended || res == extra
			}
		}
		for n := rng.Intn(400); n > 0 && l.Unfinished() > 0; n-- {
			ev := l.PopEvent()
			if ev == nil {
				break
			}
			clk.Advance(ev.At)
			if err := l.Dispatch(ev); err != nil {
				t.Fatal(err)
			}
			if n%50 == 0 {
				check("mid-run")
			}
		}
		switch trial % 5 {
		case 2:
			l.Fail(simgpu.MaskOf(simgpu.GPUID(rng.Intn(topo.N))))
		case 4:
			l.Fail(topo.AllMask())
		}
		check("after faults")
		if trial%7 == 3 {
			prof.Extend(est, extra) // the driver's on-demand profiling path
			check("after profile extension")
		}
	}
	if !saw.pending || !saw.running || !saw.shrunk || !saw.dead || !saw.cached || !saw.lazy || !saw.extended || !saw.unknown {
		t.Fatalf("sweep missed a state: %+v", saw)
	}
}

// SameLoad ignores Now and nothing else.
func TestDigestSameLoad(t *testing.T) {
	l, clk, _ := newProbeLoop(t)
	a := l.Digest()
	clk.Advance(time.Second)
	b := l.Digest()
	if a.Now == b.Now || !a.SameLoad(b) {
		t.Fatalf("a clock move alone must keep the load: %+v vs %+v", a, b)
	}
	l.Arrive(&workload.Request{ID: 1, Res: model.Res512, Steps: 50, SLO: time.Minute})
	if c := l.Digest(); c.SameLoad(b) {
		t.Fatalf("an arrival must change the load: %+v", c)
	}
}

// An unprofiled class fails the whole call and fills nothing.
func TestProbeClassesUnprofiledClassErrors(t *testing.T) {
	l, _, _ := newProbeLoop(t)
	out := make([]Feasibility, 2)
	err := l.ProbeClasses([]ProbeClass{
		{Res: model.Res512, SLO: time.Second},
		{Res: model.Resolution{W: 48, H: 48}, SLO: time.Second},
	}, out)
	if err == nil {
		t.Fatal("want error for an unprofiled class")
	}
	if out[0] != (Feasibility{}) {
		t.Fatalf("failed call filled a class: %+v", out[0])
	}
}

// BenchmarkDigestProject prices what a remote router pays per shard and
// decision: projecting the four standard classes from a digest already in
// hand. It must not allocate.
func BenchmarkDigestProject(b *testing.B) {
	l := loadedBenchLoop(b)
	d := l.Digest()
	var classes []ProbeClass
	for _, res := range model.StandardResolutions() {
		classes = append(classes, ProbeClass{Res: res, SLO: 10 * time.Second})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range classes {
			if _, err := d.Project(c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkProbeClasses prices one rebalancer-style probe of the four
// standard classes against a loaded 8-GPU loop.
func BenchmarkProbeClasses(b *testing.B) {
	l := loadedBenchLoop(b)
	var classes []ProbeClass
	for _, res := range model.StandardResolutions() {
		classes = append(classes, ProbeClass{Res: res, SLO: 10 * time.Second})
	}
	out := make([]Feasibility, len(classes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.ProbeClasses(classes, out); err != nil {
			b.Fatal(err)
		}
	}
}

// loadedBenchLoop is an 8-GPU loop 300 events into a bursty 200-request
// trace.
func loadedBenchLoop(b *testing.B) *Loop {
	mdl := model.FLUX()
	topo := simgpu.H100x8()
	prof := costmodel.BuildProfile(costmodel.NewEstimator(mdl, topo), costmodel.ProfilerConfig{})
	clk := clock.NewVirtual()
	l, err := New(Config{
		Model: mdl, Topo: topo, Profile: prof, Engine: engine.DefaultConfig(),
		Scheduler: core.NewScheduler(prof, topo, core.DefaultConfig()),
	}, clk)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range workload.Generate(workload.GeneratorConfig{
		Model: mdl, Seed: 1, NumRequests: 200, Arrivals: workload.NewBurstyArrivals(600),
	}) {
		l.ScheduleArrival(r)
	}
	for n := 0; n < 300; n++ {
		ev := l.PopEvent()
		clk.Advance(ev.At)
		if err := l.Dispatch(ev); err != nil {
			b.Fatal(err)
		}
	}
	return l
}
