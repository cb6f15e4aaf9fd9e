package invariant_test

import (
	"reflect"
	"testing"
	"time"

	"tetriserve/internal/core"
	"tetriserve/internal/model"
	"tetriserve/internal/sim"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

// metamorphicConfig builds one plane of the cache-knob metamorphic triple:
// the same trace, profile, topology, and faults every time, varying only the
// scheduler's MaxCacheInterval and whether requests carry quality budgets.
func metamorphicConfig(seed uint64, maxInterval int, budgets bool) sim.Config {
	prof, topo := fuzzProfile(8)
	mdl := model.FLUX()

	cfg := core.DefaultConfig()
	if maxInterval > 0 {
		cfg.MaxCacheInterval = maxInterval
	}

	reqs := workload.Generate(workload.GeneratorConfig{
		Model:       mdl,
		Mix:         workload.UniformMix(),
		Arrivals:    workload.PoissonArrivals{PerMinute: 30},
		NumRequests: 16,
		SLO:         workload.NewSLOPolicy(1.2),
		Seed:        seed,
	})
	if budgets {
		for i, r := range reqs {
			r.QualityBudget = (3 + i*5) % (r.Steps/2 + 1)
		}
	}

	return sim.Config{
		Model:     mdl,
		Topo:      topo,
		Scheduler: core.NewScheduler(prof, topo, cfg),
		Requests:  reqs,
		Profile:   prof,
		Faults: []simgpu.Fault{
			{GPU: 2, FailAt: 8 * time.Second, RecoverAt: 20 * time.Second},
		},
		DropLateFactor:  4.0,
		CheckInvariants: true,
	}
}

// TestCacheKnobsOffBitIdentical is the metamorphic regression tier for the
// step-cache dimension: with the cache dimension disabled along either axis
// — interval capped at 1 (budgets present but unspendable) or budgets all
// zero (intervals allowed but unaffordable) — the planner, engine, and
// control loop must behave bit-identically to the pre-cache baseline.
// Every cache code path is gated on MaxCacheInterval > 1 AND a positive
// budget, so all three planes must agree outcome-for-outcome and
// run-for-run, and none may emit a cache-assisted block.
func TestCacheKnobsOffBitIdentical(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		baseline, err := sim.Run(metamorphicConfig(seed, 0, false))
		if err != nil {
			t.Fatalf("seed %d baseline: %v", seed, err)
		}
		planes := []struct {
			name        string
			maxInterval int
			budgets     bool
		}{
			{"interval-1 with budgets", 1, true},
			{"interval-4 with zero budgets", 4, false},
		}
		for _, pl := range planes {
			got, err := sim.Run(metamorphicConfig(seed, pl.maxInterval, pl.budgets))
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, pl.name, err)
			}
			if !reflect.DeepEqual(got.Outcomes, baseline.Outcomes) {
				t.Fatalf("seed %d %s: outcomes diverge from cache-oblivious baseline", seed, pl.name)
			}
			if !reflect.DeepEqual(got.Runs, baseline.Runs) || !reflect.DeepEqual(got.RunIDs, baseline.RunIDs) {
				t.Fatalf("seed %d %s: run records diverge from cache-oblivious baseline", seed, pl.name)
			}
			if got.GPUBusySeconds != baseline.GPUBusySeconds {
				t.Fatalf("seed %d %s: GPU busy %v != baseline %v",
					seed, pl.name, got.GPUBusySeconds, baseline.GPUBusySeconds)
			}
		}
		for _, r := range baseline.Runs {
			if r.CacheInterval > 1 {
				t.Fatalf("seed %d: cache-assisted block in the cache-off baseline", seed)
			}
		}
		for _, o := range baseline.Outcomes {
			if o.Approximated != 0 {
				t.Fatalf("seed %d: request %d approximated %d steps with caching off", seed, o.ID, o.Approximated)
			}
		}
	}
}
