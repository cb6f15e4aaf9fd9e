package sim

import (
	"slices"
	"testing"
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/engine"
	"tetriserve/internal/sched"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

// TestRunRequestsMatchAssignments: each record's members on the run log's ID
// list are exactly the members its block started with, for completed,
// aborted and preempted blocks alike. The loop logs a block right after the
// hook that retires it, so the i-th retirement names Runs[i].
func TestRunRequestsMatchAssignments(t *testing.T) {
	started := map[engine.RunID][]workload.RequestID{}
	var retired []engine.RunID
	retire := func(_ time.Duration, run *engine.Run) { retired = append(retired, run.ID) }
	interrupt := func(now time.Duration, run *engine.Run, _ map[workload.RequestID]int) { retire(now, run) }
	// A dense uniform trace, so the throughput policy batches.
	trace := workload.Generate(workload.GeneratorConfig{
		Model:       testMdl,
		Mix:         workload.UniformMix(),
		Arrivals:    workload.PoissonArrivals{PerMinute: 240},
		SLO:         workload.NewSLOPolicy(1.5),
		NumRequests: 200,
		Seed:        11,
	})
	res := runSim(t, sched.NewThroughput(), trace, func(c *Config) {
		c.Faults = []simgpu.Fault{{GPU: 1, FailAt: 16700 * time.Millisecond, RecoverAt: 30 * time.Second}}
		c.Resizes = []simgpu.Resize{
			{At: 45 * time.Second, NewMask: simgpu.MaskRange(0, 4)},
			{At: 80 * time.Second, NewMask: testTopo.AllMask()},
		}
		c.DropLateFactor = 4
		c.Hooks = control.Hooks{
			RunStarted: func(_ time.Duration, run *engine.Run) {
				started[run.ID] = slices.Clone(run.Asg.Requests)
			},
			RunFinished:  retire,
			RunAborted:   interrupt,
			RunPreempted: interrupt,
		}
	})
	if len(retired) != len(res.Runs) {
		t.Fatalf("%d retirements, %d run records", len(retired), len(res.Runs))
	}
	var completed, aborted, preempted, batched, members int
	for i, rec := range res.Runs {
		want, ok := started[retired[i]]
		if !ok {
			t.Fatalf("record %d: run %d never started", i, retired[i])
		}
		if got := res.RunRequests(i); !slices.Equal(got, want) {
			t.Fatalf("record %d (%+v): members %v, started with %v", i, rec, got, want)
		}
		members += len(want)
		if len(want) > 1 {
			batched++
		}
		switch {
		case rec.Preempted:
			preempted++
		case rec.Aborted:
			aborted++
		default:
			completed++
		}
	}
	if members != len(res.RunIDs) {
		t.Fatalf("records name %d members, the ID log holds %d", members, len(res.RunIDs))
	}
	t.Logf("%d completed, %d aborted, %d preempted, %d batched records", completed, aborted, preempted, batched)
	if completed == 0 || aborted == 0 || preempted == 0 || batched == 0 {
		t.Fatalf("scenario misses a kind of record: %d completed, %d aborted, %d preempted, %d batched",
			completed, aborted, preempted, batched)
	}
}
