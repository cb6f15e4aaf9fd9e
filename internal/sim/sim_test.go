package sim

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/core"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

var (
	testMdl  = model.FLUX()
	testTopo = simgpu.H100x8()
	testProf = costmodel.BuildProfile(
		costmodel.NewEstimator(testMdl, testTopo), costmodel.ProfilerConfig{})
)

func genTrace(n int, seed uint64, scale float64) []*workload.Request {
	return workload.Generate(workload.GeneratorConfig{
		Model:       testMdl,
		Mix:         workload.UniformMix(),
		Arrivals:    workload.PoissonArrivals{PerMinute: 12},
		SLO:         workload.NewSLOPolicy(scale),
		NumRequests: n,
		Seed:        seed,
	})
}

func tetri() sched.Scheduler {
	return core.NewScheduler(testProf, testTopo, core.DefaultConfig())
}

func runSim(t *testing.T, sc sched.Scheduler, reqs []*workload.Request, mutate ...func(*Config)) *Result {
	t.Helper()
	cfg := Config{
		Model:     testMdl,
		Topo:      testTopo,
		Scheduler: sc,
		Requests:  reqs,
		Profile:   testProf,
	}
	for _, m := range mutate {
		m(&cfg)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAllRequestsComplete(t *testing.T) {
	for _, sc := range []sched.Scheduler{tetri(), sched.NewFixedSP(2), sched.NewFixedSP(8), sched.NewRSSP(8), sched.NewEDF()} {
		reqs := genTrace(60, 3, 1.2)
		res := runSim(t, sc, reqs)
		if len(res.Outcomes) != 60 {
			t.Fatalf("%s: %d outcomes for 60 requests", sc.Name(), len(res.Outcomes))
		}
		seen := map[workload.RequestID]bool{}
		for _, o := range res.Outcomes {
			if seen[o.ID] {
				t.Fatalf("%s: duplicate outcome for %d", sc.Name(), o.ID)
			}
			seen[o.ID] = true
			if o.Dropped {
				t.Fatalf("%s: dropped request without drop policy", sc.Name())
			}
			if o.Completion < o.Arrival {
				t.Fatalf("%s: completion before arrival", sc.Name())
			}
			if o.Latency != o.Completion-o.Arrival {
				t.Fatalf("%s: latency bookkeeping wrong", sc.Name())
			}
			if o.Met != (o.Completion <= o.Deadline) {
				t.Fatalf("%s: Met flag inconsistent", sc.Name())
			}
		}
	}
}

// TestStepConservation: the executed step blocks must account for exactly
// every request's step count, no more, no less.
func TestStepConservation(t *testing.T) {
	reqs := genTrace(50, 7, 1.0)
	res := runSim(t, tetri(), reqs)
	want := map[workload.RequestID]int{}
	for _, r := range reqs {
		want[r.ID] = r.Steps
	}
	// Outcome-level conservation: each non-dropped request ran to zero.
	for _, o := range res.Outcomes {
		if o.Steps != want[o.ID] {
			t.Fatalf("request %d executed %d steps, want %d", o.ID, o.Steps, want[o.ID])
		}
	}
}

// TestRunLogConsistency checks block records are well-formed and GPUs are
// never oversubscribed at any instant.
func TestRunLogConsistency(t *testing.T) {
	reqs := genTrace(60, 9, 1.1)
	res := runSim(t, tetri(), reqs)
	type ev struct {
		at    time.Duration
		delta int
	}
	var evs []ev
	for _, rec := range res.Runs {
		if rec.End <= rec.Start {
			t.Fatal("non-positive block duration")
		}
		if rec.Degree <= 0 || rec.Degree > 8 {
			t.Fatalf("degree %d out of range", rec.Degree)
		}
		evs = append(evs, ev{rec.Start, int(rec.Degree)}, ev{rec.End, -int(rec.Degree)})
	}
	// Sweep: releases before acquisitions at equal timestamps.
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].delta < evs[j].delta
	})
	inUse := 0
	for _, e := range evs {
		inUse += e.delta
		if inUse > res.NGPU {
			t.Fatalf("GPU oversubscription: %d in use on %d GPUs", inUse, res.NGPU)
		}
		if inUse < 0 {
			t.Fatal("negative GPU usage")
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	a := runSim(t, tetri(), genTrace(40, 11, 1.0))
	b := runSim(t, tetri(), genTrace(40, 11, 1.0))
	if len(a.Outcomes) != len(b.Outcomes) {
		t.Fatal("outcome counts differ")
	}
	byID := map[workload.RequestID]Outcome{}
	for _, o := range a.Outcomes {
		byID[o.ID] = o
	}
	for _, o := range b.Outcomes {
		if byID[o.ID].Completion != o.Completion {
			t.Fatalf("request %d completed at %v vs %v across identical runs",
				o.ID, byID[o.ID].Completion, o.Completion)
		}
	}
}

// TestRoundTickHookLeavesRunUnchanged: an idle loop parks whether or not a
// RoundTick observer is attached, so the hook cannot change the event
// sequence — the results match field for field, RoundTicks included.
func TestRoundTickHookLeavesRunUnchanged(t *testing.T) {
	run := func(hooks control.Hooks) *Result {
		return runSim(t, tetri(), genTrace(40, 5, 1.0), func(c *Config) { c.Hooks = hooks })
	}
	bare := run(control.Hooks{})
	observed := run(control.Hooks{RoundTick: func(at, now time.Duration) {}})
	if !reflect.DeepEqual(bare, observed) {
		t.Fatalf("a RoundTick hook changed the run: RoundTicks %d vs %d, plans %d vs %d",
			bare.RoundTicks, observed.RoundTicks, bare.PlanCalls, observed.PlanCalls)
	}
}

func TestDropPolicy(t *testing.T) {
	// Very tight SLOs at SP=1 guarantee late 1024/2048 requests; the drop
	// policy must time them out instead of running forever.
	reqs := genTrace(40, 13, 1.0)
	res := runSim(t, sched.NewFixedSP(1), reqs, func(c *Config) { c.DropLateFactor = 2.0 })
	dropped := 0
	for _, o := range res.Outcomes {
		if o.Dropped {
			dropped++
			if o.Met {
				t.Fatal("dropped request marked as met")
			}
			if o.Completion != 0 {
				t.Fatal("dropped request has completion time")
			}
		}
	}
	if dropped == 0 {
		t.Fatal("expected timeouts under SP=1 with tight SLOs")
	}
}

func TestMakespanAndUtilization(t *testing.T) {
	reqs := genTrace(30, 17, 1.2)
	res := runSim(t, tetri(), reqs)
	if res.Makespan < reqs[len(reqs)-1].Arrival {
		t.Fatal("makespan before last arrival")
	}
	if res.GPUBusySeconds <= 0 {
		t.Fatal("no GPU time recorded")
	}
	if res.GPUBusySeconds > res.Makespan.Seconds()*float64(res.NGPU) {
		t.Fatal("busy time exceeds capacity")
	}
}

func TestEmptyTraceRejected(t *testing.T) {
	_, err := Run(Config{Model: testMdl, Topo: testTopo, Scheduler: tetri()})
	if err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestMissingFieldsRejected(t *testing.T) {
	_, err := Run(Config{})
	if err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestTrimmerShortensRequests(t *testing.T) {
	reqs := genTrace(30, 23, 1.2)
	res := runSim(t, tetri(), reqs, func(c *Config) {
		c.Trimmer = fixedTrimmer{skip: 20}
	})
	for _, o := range res.Outcomes {
		if o.Skipped != 20 {
			t.Fatalf("request %d skipped %d steps, want 20", o.ID, o.Skipped)
		}
		if o.Steps != 30 {
			t.Fatalf("request %d executed %d steps, want 30", o.ID, o.Steps)
		}
	}
}

func TestTrimmerCannotSkipEverything(t *testing.T) {
	reqs := genTrace(10, 29, 1.2)
	res := runSim(t, tetri(), reqs, func(c *Config) {
		c.Trimmer = fixedTrimmer{skip: 1000}
	})
	for _, o := range res.Outcomes {
		if o.Steps < 1 {
			t.Fatal("at least one denoising step must always run")
		}
	}
}

type fixedTrimmer struct{ skip int }

func (f fixedTrimmer) OnArrival(workload.Prompt, model.Resolution, int, time.Duration) int {
	return f.skip
}
func (f fixedTrimmer) OnComplete(workload.Prompt, model.Resolution, time.Duration) {}

// TestCacheImprovesSAR: trimming steps must never hurt and should help at
// tight SLOs.
func TestCacheImprovesSAR(t *testing.T) {
	base := runSim(t, tetri(), genTrace(60, 31, 1.0))
	trimmed := runSim(t, tetri(), genTrace(60, 31, 1.0), func(c *Config) {
		c.Trimmer = fixedTrimmer{skip: 25}
	})
	sar := func(r *Result) float64 {
		met := 0
		for _, o := range r.Outcomes {
			if o.Met {
				met++
			}
		}
		return float64(met) / float64(len(r.Outcomes))
	}
	if sar(trimmed) < sar(base) {
		t.Fatalf("halving work lowered SAR: %.2f -> %.2f", sar(base), sar(trimmed))
	}
}

func TestEagerAdmissionReducesIdleWait(t *testing.T) {
	// A single 2048px request arriving mid-round on an idle cluster: with
	// eager admission it starts immediately; strictly round-based it waits
	// for the boundary.
	mk := func(eager bool) time.Duration {
		cfg := core.DefaultConfig()
		cfg.EagerAdmission = eager
		sc := core.NewScheduler(testProf, testTopo, cfg)
		req := &workload.Request{
			ID: 0, Res: model.Res2048, Steps: 50,
			Arrival: 100 * time.Millisecond, SLO: 10 * time.Second,
		}
		res := runSim(t, sc, []*workload.Request{req})
		return res.Outcomes[0].Latency
	}
	eagerLat := mk(true)
	strictLat := mk(false)
	if eagerLat >= strictLat {
		t.Fatalf("eager admission should cut latency: eager %v vs strict %v", eagerLat, strictLat)
	}
}

func TestRoundTicksDeferToOverruns(t *testing.T) {
	// Round-aligned blocks with noise can overrun τ slightly; the run must
	// still terminate and keep causality (tested implicitly by Run's
	// internal clock panic on backwards time).
	reqs := genTrace(80, 37, 1.0)
	res := runSim(t, tetri(), reqs)
	if len(res.Outcomes) != 80 {
		t.Fatal("not all requests finished")
	}
}

func TestBestEffortBlocksRecorded(t *testing.T) {
	// Tight SLOs make some requests definitely late; their lane blocks
	// must be flagged in the run log.
	reqs := genTrace(80, 41, 1.0)
	res := runSim(t, tetri(), reqs)
	lane := 0
	for _, rec := range res.Runs {
		if rec.BestEffort {
			lane++
		}
	}
	if lane == 0 {
		t.Fatal("expected best-effort lane blocks under tight SLOs")
	}
}

func TestMaxVirtualTimeGuard(t *testing.T) {
	reqs := genTrace(30, 43, 1.0)
	_, err := Run(Config{
		Model:          testMdl,
		Topo:           testTopo,
		Scheduler:      tetri(),
		Requests:       reqs,
		Profile:        testProf,
		MaxVirtualTime: time.Second, // absurdly small
	})
	if err == nil {
		t.Fatal("virtual time guard did not trip")
	}
}
