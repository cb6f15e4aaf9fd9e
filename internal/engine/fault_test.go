package engine

import (
	"testing"
	"time"

	"tetriserve/internal/model"
	"tetriserve/internal/simgpu"
)

// TestFailGPUsAbortsIntersectingRun: a fault that hits one member of an
// in-flight block kills the whole block (the collective hangs), credits the
// steps completed so far, frees the surviving GPUs, and keeps the latent on
// the live shard only.
func TestFailGPUsAbortsIntersectingRun(t *testing.T) {
	e := newEngine(t, func(c *Config) { c.Noise = 0 })
	states := mkStates(model.Res1024, 50, 1)
	group := simgpu.MaskOf(0, 1)
	run, err := e.Start(0, asg(group, 10, 1), states, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Fail GPU 1 after ~3.5 steps of progress.
	at := run.Start + run.Overhead + run.StepTime*7/2
	failures := e.FailGPUs(at, simgpu.MaskOf(1))
	if len(failures) != 1 {
		t.Fatalf("got %d failures, want 1", len(failures))
	}
	f := failures[0]
	if f.Run.ID != run.ID || f.At != at {
		t.Fatalf("failure = %+v", f)
	}
	if f.Failed != simgpu.MaskOf(1) {
		t.Fatalf("failed mask = %v, want just GPU 1", f.Failed)
	}
	if got := f.StepsDone[1]; got != 3 {
		t.Fatalf("partial credit = %d steps, want 3 (work past the last whole step is lost)", got)
	}
	if f.Error() == "" {
		t.Fatal("RunFailure must describe itself as an error")
	}

	if e.Running() != 0 {
		t.Fatal("aborted run still tracked")
	}
	if e.RunsAborted() != 1 {
		t.Fatalf("RunsAborted = %d", e.RunsAborted())
	}
	if e.FailedGPUs() != simgpu.MaskOf(1) {
		t.Fatalf("FailedGPUs = %v", e.FailedGPUs())
	}
	// Survivor freed, dead GPU out of the pool.
	if !e.Free().Has(0) {
		t.Fatal("surviving GPU 0 not freed")
	}
	if e.Free().Has(1) {
		t.Fatal("failed GPU 1 still free")
	}
	// The latent survives only on the live member; resuming anywhere is a
	// reconfiguration, not a free first placement.
	if loc := e.LatentLocation(1); loc != simgpu.MaskOf(0) {
		t.Fatalf("latent location = %v, want {0}", loc)
	}
	// The engine already retired the run; a late Finish must error so the
	// caller's forgotten completion event cannot double-free GPUs.
	if err := e.Finish(run); err == nil {
		t.Fatal("Finish after abort accepted")
	}
}

func TestFailGPUsIgnoresAlreadyFailed(t *testing.T) {
	e := newEngine(t)
	if got := e.FailGPUs(0, simgpu.MaskOf(2)); len(got) != 0 {
		t.Fatalf("idle fault produced %d failures", len(got))
	}
	if got := e.FailGPUs(time.Second, simgpu.MaskOf(2)); got != nil {
		t.Fatal("re-failing a dead GPU should be a no-op")
	}
	if e.FailedGPUs() != simgpu.MaskOf(2) {
		t.Fatalf("FailedGPUs = %v", e.FailedGPUs())
	}
}

func TestFailGPUsSparesDisjointRuns(t *testing.T) {
	e := newEngine(t, func(c *Config) { c.Noise = 0 })
	states := mkStates(model.Res512, 20, 1, 2)
	r1, err := e.Start(0, asg(simgpu.MaskOf(0, 1), 5, 1), states, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Start(0, asg(simgpu.MaskOf(4, 5), 5, 2), states, 0); err != nil {
		t.Fatal(err)
	}
	failures := e.FailGPUs(time.Millisecond, simgpu.MaskOf(4))
	if len(failures) != 1 || failures[0].Run.Asg.Group != simgpu.MaskOf(4, 5) {
		t.Fatalf("wrong run aborted: %+v", failures)
	}
	if e.Running() != 1 {
		t.Fatal("disjoint run should keep running")
	}
	if err := e.Finish(r1); err != nil {
		t.Fatal(err)
	}
}

// TestFailGPUsShrinksParkedLatents: latents of requests between blocks lose
// their dead shards too.
func TestFailGPUsShrinksParkedLatents(t *testing.T) {
	e := newEngine(t, func(c *Config) { c.Noise = 0 })
	states := mkStates(model.Res512, 20, 1)
	run, err := e.Start(0, asg(simgpu.MaskOf(2, 3), 5, 1), states, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Finish(run); err != nil {
		t.Fatal(err)
	}
	if e.FailGPUs(run.End, simgpu.MaskOf(3)) != nil {
		t.Fatal("no run should be in flight")
	}
	if loc := e.LatentLocation(1); loc != simgpu.MaskOf(2) {
		t.Fatalf("parked latent = %v, want {2}", loc)
	}
}

func TestRecoverGPUsRestoresPool(t *testing.T) {
	e := newEngine(t)
	e.FailGPUs(0, simgpu.MaskOf(1, 5))
	// Recovering a healthy GPU is a no-op; only the dead ones transition.
	if got := e.RecoverGPUs(simgpu.MaskOf(0, 1)); got != simgpu.MaskOf(1) {
		t.Fatalf("recovered = %v, want {1}", got)
	}
	if e.FailedGPUs() != simgpu.MaskOf(5) {
		t.Fatalf("FailedGPUs = %v", e.FailedGPUs())
	}
	if !e.Free().Has(1) {
		t.Fatal("recovered GPU not returned to the free pool")
	}
	if got := e.RecoverGPUs(simgpu.MaskOf(0)); got != 0 {
		t.Fatalf("healthy-only recover = %v, want 0", got)
	}
}

// TestFaultInvalidatesWarmGroups: after a fault+recovery cycle the rebuilt
// process group is cold and the first block on it pays warm-up again (§5).
func TestFaultInvalidatesWarmGroups(t *testing.T) {
	e := newEngine(t, func(c *Config) { c.Noise = 0 })
	g := simgpu.MaskOf(0, 1)
	states := mkStates(model.Res1024, 50, 1)
	run, err := e.Start(0, asg(g, 5, 1), states, 0)
	if err != nil {
		t.Fatal(err)
	}
	if run.Overhead != 0 {
		t.Fatalf("prewarmed canonical group paid %v", run.Overhead)
	}
	if err := e.Finish(run); err != nil {
		t.Fatal(err)
	}
	e.FailGPUs(run.End, simgpu.MaskOf(1))
	e.RecoverGPUs(simgpu.MaskOf(1))
	// A fresh request (no latent to move) on the same group: any overhead is
	// pure re-warm-up of the torn-down communicator.
	fresh := mkStates(model.Res1024, 50, 2)
	run2, err := e.Start(run.End, asg(g, 5, 2), fresh, 0)
	if err != nil {
		t.Fatal(err)
	}
	if run2.Overhead == 0 {
		t.Fatal("rebuilt group should pay warm-up after the fault tore it down")
	}
}

// TestInterruptsRetireInRunIDOrder: a fault or a shrink that cuts several
// blocks short returns them in run-ID order and adds their GPU·seconds in
// that order, so the busy total does not depend on the engine's map walk
// (float addition is not associative). Each trial starts eight one-GPU
// blocks at staggered instants on a fresh engine.
func TestInterruptsRetireInRunIDOrder(t *testing.T) {
	interrupts := map[string]func(e *Engine, now time.Duration) []*Run{
		"fault": func(e *Engine, now time.Duration) []*Run {
			var runs []*Run
			for _, f := range e.FailGPUs(now, testTopo.AllMask()) {
				runs = append(runs, f.Run)
			}
			return runs
		},
		"resize": func(e *Engine, now time.Duration) []*Run {
			var runs []*Run
			for _, p := range e.Resize(now, 0) {
				runs = append(runs, p.Run)
			}
			return runs
		},
	}
	for name, interrupt := range interrupts {
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				e := newEngine(t, func(c *Config) { c.Noise = 0 })
				for g := 0; g < testTopo.N; g++ {
					start := time.Duration(g)*37*time.Millisecond + time.Duration(g*g)*time.Microsecond
					if _, err := e.Start(start, asg(simgpu.MaskOf(simgpu.GPUID(g)), 50, g), mkStates(model.Res1024, 50, g), 0); err != nil {
						t.Fatal(err)
					}
				}
				now := 2 * time.Second
				runs := interrupt(e, now)
				if len(runs) != testTopo.N {
					t.Fatalf("%d blocks interrupted, want %d", len(runs), testTopo.N)
				}
				want := 0.0
				for i, run := range runs {
					if i > 0 && run.ID <= runs[i-1].ID {
						t.Fatalf("trial %d: run %d returned after run %d", trial, run.ID, runs[i-1].ID)
					}
					want += float64(run.Degree) * (now - run.Start).Seconds()
				}
				if got := e.GPUBusySeconds(); got != want {
					t.Fatalf("trial %d: busy %v GPU·s, %v summed in run-ID order", trial, got, want)
				}
			}
		})
	}
}
