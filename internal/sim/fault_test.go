package sim

import (
	"testing"
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/engine"
	"tetriserve/internal/metrics"
	"tetriserve/internal/model"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

// faultTrace is a denser trace than genTrace so staggered faults reliably
// land on in-flight blocks.
func faultTrace(n int, seed uint64) []*workload.Request {
	return workload.Generate(workload.GeneratorConfig{
		Model:       testMdl,
		Mix:         workload.UniformMix(),
		Arrivals:    workload.PoissonArrivals{PerMinute: 30},
		SLO:         workload.NewSLOPolicy(1.5),
		NumRequests: n,
		Seed:        seed,
	})
}

// TestMidRunFaultRequeuesAndCompletes is the tentpole's core scenario: a
// fail-stop fault mid-trace aborts in-flight blocks, the survivors are
// requeued with their completed steps credited, and the simulation finishes
// on the remaining GPUs without panicking or deadlocking.
func TestMidRunFaultRequeuesAndCompletes(t *testing.T) {
	const n = 30
	// 16.7s lands inside a deg-4 block on {0,1,2,3} for this seed, so the
	// GPU 1 fault is guaranteed to abort in-flight work.
	failAt := 16700 * time.Millisecond
	failAt2 := 45 * time.Second
	res := runSim(t, tetri(), faultTrace(n, 11), func(c *Config) {
		c.Faults = []simgpu.Fault{{GPU: 1, FailAt: failAt}, {GPU: 5, FailAt: failAt2}}
		c.DropLateFactor = 4.0
	})
	if len(res.Outcomes) != n {
		t.Fatalf("%d outcomes for %d requests", len(res.Outcomes), n)
	}
	if res.RunsAborted == 0 {
		t.Fatal("faults landed on an idle cluster; the scenario exercises nothing")
	}

	var aborted []int // indexes into res.Runs
	for i, rec := range res.Runs {
		if rec.Aborted {
			aborted = append(aborted, i)
			if rec.End != failAt && rec.End != failAt2 {
				t.Fatalf("aborted block ends at %v, want a fault instant", rec.End)
			}
			continue
		}
		// No block scheduled after a fault may touch the dead GPU.
		if rec.Start >= failAt && rec.Group.Has(1) {
			t.Fatalf("block at %v placed on failed GPU 1 (group %v)", rec.Start, rec.Group)
		}
		if rec.Start >= failAt2 && rec.Group.Has(5) {
			t.Fatalf("block at %v placed on failed GPU 5 (group %v)", rec.Start, rec.Group)
		}
	}
	if len(aborted) != res.RunsAborted {
		t.Fatalf("%d aborted run records, counter says %d", len(aborted), res.RunsAborted)
	}

	// Requeue + completion: at least one victim of an aborted block must
	// finish (not drop) after the fault, on the surviving GPUs.
	outcome := map[workload.RequestID]Outcome{}
	for _, o := range res.Outcomes {
		outcome[o.ID] = o
	}
	recovered := 0
	for _, i := range aborted {
		for _, id := range res.RunRequests(i) {
			o, ok := outcome[id]
			if !ok {
				t.Fatalf("aborted request %d has no outcome", id)
			}
			if !o.Dropped && o.Completion > res.Runs[i].End {
				recovered++
			}
		}
	}
	if recovered == 0 {
		t.Fatal("no aborted request was requeued to completion on the survivors")
	}
}

// TestFaultRecoveryRestoresCapacity: a GPU that recovers mid-trace is used
// again by later blocks.
func TestFaultRecoveryRestoresCapacity(t *testing.T) {
	const n = 30
	res := runSim(t, tetri(), faultTrace(n, 11), func(c *Config) {
		c.Faults = []simgpu.Fault{{GPU: 1, FailAt: 10 * time.Second, RecoverAt: 30 * time.Second}}
		c.DropLateFactor = 4.0
	})
	if len(res.Outcomes) != n {
		t.Fatalf("%d outcomes for %d requests", len(res.Outcomes), n)
	}
	reused := false
	for _, rec := range res.Runs {
		if rec.Start >= 10*time.Second && rec.Start < 30*time.Second && !rec.Aborted && rec.Group.Has(1) {
			t.Fatalf("block at %v used GPU 1 while it was down", rec.Start)
		}
		if rec.Start >= 30*time.Second && rec.Group.Has(1) {
			reused = true
		}
	}
	if !reused {
		t.Fatal("recovered GPU 1 never used again")
	}
}

// TestNoRequeueAblationDropsVictims: with the requeue disabled every
// unfinished victim of a fault is dropped, so the ablation can only do worse.
func TestNoRequeueAblationDropsVictims(t *testing.T) {
	trace := func() []*workload.Request { return faultTrace(30, 11) }
	faults := []simgpu.Fault{{GPU: 1, FailAt: 20 * time.Second}, {GPU: 5, FailAt: 40 * time.Second}}
	run := func(noRequeue bool) *Result {
		return runSim(t, tetri(), trace(), func(c *Config) {
			c.Faults = append([]simgpu.Fault(nil), faults...)
			c.DropLateFactor = 4.0
			c.NoRequeueOnFault = noRequeue
		})
	}
	sar := func(r *Result) float64 {
		met := 0
		for _, o := range r.Outcomes {
			if o.Met {
				met++
			}
		}
		return float64(met) / float64(len(r.Outcomes))
	}
	with := run(false)
	without := run(true)
	dropped := 0
	for _, o := range without.Outcomes {
		if o.Dropped {
			dropped++
		}
	}
	if without.RunsAborted > 0 && dropped == 0 {
		t.Fatal("no-requeue ablation aborted runs but dropped nobody")
	}
	if sar(without) > sar(with) {
		t.Fatalf("ablation SAR %.3f beats requeue SAR %.3f", sar(without), sar(with))
	}
}

// TestStatesMapDrained is the leak regression: every request — finished,
// timeout-dropped, or fault-dropped — must leave s.states when finalized, or
// a long-running simulation grows without bound.
func TestStatesMapDrained(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"clean", func(c *Config) {}},
		{"with drops", func(c *Config) { c.DropLateFactor = 1.0 }},
		{"with faults", func(c *Config) {
			c.DropLateFactor = 4.0
			c.Faults = []simgpu.Fault{{GPU: 1, FailAt: 20 * time.Second}}
		}},
	} {
		cfg := Config{
			Model:     testMdl,
			Topo:      testTopo,
			Scheduler: tetri(),
			Requests:  faultTrace(30, 13),
			Profile:   testProf,
		}
		tc.mutate(&cfg)
		s, err := newSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.loop(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n := s.ctl.StateCount(); n != 0 {
			t.Fatalf("%s: %d request states leaked after the loop drained", tc.name, n)
		}
	}
}

// TestRequeueRescuesVictimByConstruction: requeue strictly beats the
// no-requeue ablation when a fault victim can still meet its SLO. One
// request with ample slack runs alone; the fault kills a GPU of its first
// multi-step block halfway through, after at least one step finished. With
// requeue the victim keeps the credited prefix and still meets on the seven
// survivors; without it the victim is dropped as a fault victim.
func TestRequeueRescuesVictimByConstruction(t *testing.T) {
	req := func() []*workload.Request {
		return []*workload.Request{{ID: 1, Res: model.Res1024, Steps: 50, SLO: time.Minute}}
	}
	clean := runSim(t, tetri(), req())
	if o := clean.Outcomes[0]; !o.Met {
		t.Fatalf("fault-free run misses its SLO (latency %v); the victim has no slack to spend", o.Latency)
	}
	var first *RunRecord
	for i := range clean.Runs {
		if clean.Runs[i].Steps >= 2 {
			first = &clean.Runs[i]
			break
		}
	}
	if first == nil {
		t.Fatal("no block runs two steps or more")
	}
	fault := simgpu.Fault{GPU: first.Group.IDs()[0], FailAt: first.Start + (first.End-first.Start)/2}

	// run returns the steps credited at the abort and the steps run in
	// all, credited prefix included.
	run := func(noRequeue bool) (res *Result, credited, executed int) {
		res = runSim(t, tetri(), req(), func(c *Config) {
			c.Faults = []simgpu.Fault{fault}
			c.NoRequeueOnFault = noRequeue
			c.Hooks.RunFinished = func(_ time.Duration, run *engine.Run) { executed += run.Steps[1] }
			c.Hooks.RunAborted = func(_ time.Duration, _ *engine.Run, stepsDone map[workload.RequestID]int) {
				credited += stepsDone[1]
				executed += stepsDone[1]
			}
		})
		if res.RunsAborted != 1 {
			t.Fatalf("no-requeue %v: %d runs aborted, want the victim's block only", noRequeue, res.RunsAborted)
		}
		return res, credited, executed
	}
	with, credited, executed := run(false)
	if credited == 0 {
		t.Fatalf("fault at %v credited no finished step; it must land after the block's first step", fault.FailAt)
	}
	if o := with.Outcomes[0]; o.Dropped || !o.Met || executed != o.Steps {
		t.Fatalf("requeue: victim dropped %v (%s), met %v after %d of %d steps; want met with the %d-step prefix run once",
			o.Dropped, o.Cause, o.Met, executed, o.Steps, credited)
	}
	without, _, _ := run(true)
	if o := without.Outcomes[0]; !o.Dropped || o.Cause != control.DropFault {
		t.Fatalf("no-requeue: victim dropped %v (%s); want a fault drop", o.Dropped, o.Cause)
	}
	if a, b := metrics.SAR(with), metrics.SAR(without); a <= b {
		t.Fatalf("requeue SAR %.2f not strictly above no-requeue SAR %.2f", a, b)
	}
}
