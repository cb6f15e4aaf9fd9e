package sim

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"tetriserve/internal/core"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

// TestResizesPreemptAndComplete: on an event-driven loop a capacity shrink
// mid-trace preempts in-flight blocks cooperatively (no fault accounting),
// the shard keeps serving on the reduced set, a later grow restores it, and
// the oracle audits the whole run.
func TestResizesPreemptAndComplete(t *testing.T) {
	const n = 30
	shrinkAt := 16700 * time.Millisecond // inside a busy stretch for this seed
	growAt := 60 * time.Second
	donated := simgpu.MaskRange(0, 4)
	res := runSim(t, sched.NewFixedSP(2), faultTrace(n, 11), func(c *Config) {
		c.Resizes = []simgpu.Resize{
			{At: shrinkAt, NewMask: testTopo.AllMask().Without(donated)},
			{At: growAt, NewMask: testTopo.AllMask()},
		}
		c.DropLateFactor = 4.0
		c.CheckInvariants = true
	})
	if len(res.Outcomes) != n {
		t.Fatalf("%d outcomes for %d requests", len(res.Outcomes), n)
	}
	if res.Resizes != 2 {
		t.Fatalf("Resizes = %d, want 2", res.Resizes)
	}
	if res.RunsPreempted == 0 {
		t.Fatal("shrink landed on an idle cluster; the scenario exercises nothing")
	}
	if res.RunsAborted != 0 {
		t.Fatalf("RunsAborted = %d: planned resizes must not count as faults", res.RunsAborted)
	}
	for _, rec := range res.Runs {
		if rec.Preempted && rec.End != shrinkAt {
			t.Fatalf("preempted block ends at %v, want the shrink instant", rec.End)
		}
		if rec.Aborted && !rec.Preempted {
			t.Fatalf("aborted-but-not-preempted record with no fault configured: %+v", rec)
		}
		// Between shrink and grow, no block may touch the donated GPUs.
		if rec.Start >= shrinkAt && rec.Start < growAt && rec.Group.Overlaps(donated) {
			t.Fatalf("block at %v placed on donated GPUs (group %v)", rec.Start, rec.Group)
		}
	}
}

// TestResizeOnRoundBasedLoopWaitsForBoundary: the round-based scheduler stages
// pre-scheduled resizes to the next clean round boundary, so a planned shrink
// never preempts round-aligned work — the capacity still changes and the
// trace still completes.
func TestResizeOnRoundBasedLoopWaitsForBoundary(t *testing.T) {
	res := runSim(t, tetri(), faultTrace(30, 11), func(c *Config) {
		c.Resizes = []simgpu.Resize{
			{At: 16700 * time.Millisecond, NewMask: simgpu.MaskRange(0, 6)},
		}
		c.DropLateFactor = 4.0
		c.CheckInvariants = true
	})
	if res.Resizes != 1 {
		t.Fatalf("Resizes = %d, want 1", res.Resizes)
	}
	if res.RunsPreempted != 0 {
		t.Fatalf("RunsPreempted = %d: round-based staging must land on a clean boundary", res.RunsPreempted)
	}
}

// TestResizesInterleavedWithFaultsDeterministic: the double-execution check —
// resizes and faults interleaved on one loop must replay bit-identically, with
// the oracle attached both times.
func TestResizesInterleavedWithFaultsDeterministic(t *testing.T) {
	run := func() *Result {
		return runSim(t, tetri(), faultTrace(30, 11), func(c *Config) {
			c.Faults = []simgpu.Fault{{GPU: 1, FailAt: 20 * time.Second, RecoverAt: 50 * time.Second}}
			c.Resizes = []simgpu.Resize{
				{At: 16700 * time.Millisecond, NewMask: simgpu.MaskRange(0, 6)},
				{At: 70 * time.Second, NewMask: testTopo.AllMask()},
			}
			c.DropLateFactor = 4.0
			c.CheckInvariants = true
		})
	}
	a, b := run(), run()
	if len(a.Outcomes) != len(b.Outcomes) {
		t.Fatalf("outcome counts diverged: %d vs %d", len(a.Outcomes), len(b.Outcomes))
	}
	for i := range a.Outcomes {
		if a.Outcomes[i] != b.Outcomes[i] {
			t.Fatalf("outcome %d diverged:\n%+v\n%+v", i, a.Outcomes[i], b.Outcomes[i])
		}
	}
	if len(a.Runs) != len(b.Runs) {
		t.Fatalf("run counts diverged: %d vs %d", len(a.Runs), len(b.Runs))
	}
	for i := range a.Runs {
		if !reflect.DeepEqual(a.Runs[i], b.Runs[i]) || !reflect.DeepEqual(a.RunRequests(i), b.RunRequests(i)) {
			t.Fatalf("run record %d diverged:\n%+v %v\n%+v %v", i, a.Runs[i], a.RunRequests(i), b.Runs[i], b.RunRequests(i))
		}
	}
	if a.Resizes != b.Resizes || a.RunsPreempted != b.RunsPreempted ||
		a.RunsAborted != b.RunsAborted || a.Makespan != b.Makespan {
		t.Fatalf("counters diverged: %+v vs %+v", a, b)
	}
}

// elasticShards builds n shards sharing one full-size topology, each sliced
// to a `gpus`-GPU capacity prefix — the configuration rebalancing grows and
// shrinks.
func elasticShards(n, gpus int) []ShardSpec {
	specs := make([]ShardSpec, n)
	for i := range specs {
		topo := simgpu.H100x8()
		prof := costmodel.BuildProfile(costmodel.NewEstimator(testMdl, topo), costmodel.ProfilerConfig{})
		specs[i] = ShardSpec{
			Topo:      topo,
			Scheduler: core.NewScheduler(prof, topo, core.DefaultConfig()),
			Profile:   prof,
			Capacity:  simgpu.MaskRange(0, gpus),
		}
	}
	return specs
}

// skewedTrace sends every request to one resolution class so the router
// piles load onto whichever shard wins it — manufacturing the imbalance the
// rebalancer must respond to.
func skewedTrace(n int, seed uint64) []*workload.Request {
	mix, err := workload.CustomMix("hires",
		[]model.Resolution{model.Res1024}, []float64{1})
	if err != nil {
		panic(err)
	}
	return workload.Generate(workload.GeneratorConfig{
		Model:       testMdl,
		Mix:         mix,
		Arrivals:    workload.NewBurstyArrivals(60),
		SLO:         workload.NewSLOPolicy(1.5),
		NumRequests: n,
		Seed:        seed,
	})
}

// TestRunShardedRebalanceMovesGPUsDeterministically: under skewed load the
// elastic harness must move at least one GPU, keep every invariant (oracle
// attached per shard), and replay the exact same moves on re-execution.
func TestRunShardedRebalanceMovesGPUsDeterministically(t *testing.T) {
	run := func() *ShardedResult {
		res, err := RunSharded(ShardedConfig{
			Model:           testMdl,
			Shards:          elasticShards(2, 2),
			Requests:        skewedTrace(40, 7),
			Rebalance:       &RebalanceConfig{},
			DropLateFactor:  4.0,
			CheckInvariants: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Rebalances) == 0 {
		t.Fatal("skewed load produced no rebalance moves")
	}
	if len(a.Rebalances) != len(b.Rebalances) {
		t.Fatalf("move counts diverged: %d vs %d", len(a.Rebalances), len(b.Rebalances))
	}
	for i := range a.Rebalances {
		if a.Rebalances[i] != b.Rebalances[i] {
			t.Fatalf("move %d diverged:\n%+v\n%+v", i, a.Rebalances[i], b.Rebalances[i])
		}
	}
	for i := range a.Shards {
		if len(a.Shards[i].Outcomes) != len(b.Shards[i].Outcomes) {
			t.Fatalf("shard %d outcome counts diverged", i)
		}
		for j := range a.Shards[i].Outcomes {
			if a.Shards[i].Outcomes[j] != b.Shards[i].Outcomes[j] {
				t.Fatalf("shard %d outcome %d diverged", i, j)
			}
		}
	}
	// Conservation across moves: every donation has a matching receipt.
	delta := map[int]int{}
	for _, ev := range a.Rebalances {
		delta[ev.From]--
		delta[ev.To]++
		if ev.Donated == 0 || ev.Received == 0 {
			t.Fatalf("move with empty slot masks: %+v", ev)
		}
	}
	total := 0
	for _, d := range delta {
		total += d
	}
	if total != 0 {
		t.Fatalf("GPU moves don't conserve capacity: net %+d", total)
	}
}

// TestRunShardedRebalanceOffByDefault: without a Rebalance config the sharded
// harness records no moves and shard capacities never change.
func TestRunShardedRebalanceOffByDefault(t *testing.T) {
	res, err := RunSharded(ShardedConfig{
		Model:           testMdl,
		Shards:          shardSpecs(2, 2),
		Requests:        smallMixTrace(20, 3, 30, 1.5),
		DropLateFactor:  4.0,
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rebalances) != 0 {
		t.Fatalf("moves without a rebalance config: %v", res.Rebalances)
	}
}

// TestRunShardedRebalanceRejectsNonPrefixCapacity: the rebalance ledger
// counts GPUs and resizes to prefixes, so a shard that starts on any other
// slice is a configuration error, not a silent renumbering.
func TestRunShardedRebalanceRejectsNonPrefixCapacity(t *testing.T) {
	specs := elasticShards(2, 2)
	specs[1].Capacity = simgpu.MaskRange(2, 2)
	_, err := RunSharded(ShardedConfig{
		Model:     testMdl,
		Shards:    specs,
		Requests:  skewedTrace(4, 7),
		Rebalance: &RebalanceConfig{},
	})
	if err == nil || !strings.Contains(err.Error(), "prefix") {
		t.Fatalf("err = %v, want a non-prefix Capacity rejected", err)
	}
}
