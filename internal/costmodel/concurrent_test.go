package costmodel_test

// Regression test for the documented Profile concurrency contract: after
// BuildProfile, every lookup method is safe for any number of concurrent
// readers — the parallel experiment harness relies on this to share one
// profile across simulation cells. Run under `go test -race` this fails on
// any accidental mutation introduced into the lookup paths.

import (
	"sync"
	"testing"

	"tetriserve/internal/core"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/model"
	"tetriserve/internal/sim"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

func TestProfileConcurrentReadsUnderSimulations(t *testing.T) {
	mdl := model.FLUX()
	topo := simgpu.H100x8()
	est := costmodel.NewEstimator(mdl, topo)
	prof := costmodel.BuildProfile(est, costmodel.ProfilerConfig{})

	done := make(chan struct{})
	var wg sync.WaitGroup

	// 8 reader goroutines hammer the lookup methods the scheduler uses on
	// its hot path.
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resolutions := prof.Resolutions()
			degrees := prof.Degrees()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, res := range resolutions {
					for _, k := range degrees {
						_ = prof.StepTime(res, k)
						_ = prof.StepTimeBatch(res, k, 4)
						_, _ = prof.Lookup(res, k, 1)
						_ = prof.GPUSeconds(res, k)
					}
					_, _ = prof.MinStepTime(res)
					_ = prof.Has(res)
					_ = prof.BestLatencyDegree(res)
				}
				_ = prof.Version()
				_ = prof.MaxDegree()
			}
		}()
	}

	// Meanwhile, concurrent simulations share the same profile — the shape
	// the parallel harness produces.
	var simWG sync.WaitGroup
	for cell := 0; cell < 4; cell++ {
		cell := cell
		simWG.Add(1)
		go func() {
			defer simWG.Done()
			reqs := workload.Generate(workload.GeneratorConfig{
				Model:       mdl,
				Mix:         workload.UniformMix(),
				Arrivals:    workload.PoissonArrivals{PerMinute: 30},
				SLO:         workload.NewSLOPolicy(1.0),
				NumRequests: 40,
				Seed:        uint64(cell + 1),
			})
			_, err := sim.Run(sim.Config{
				Model:     mdl,
				Topo:      topo,
				Scheduler: core.NewScheduler(prof, topo, core.DefaultConfig()),
				Requests:  reqs,
				Profile:   prof,
			})
			if err != nil {
				t.Errorf("cell %d: simulation failed: %v", cell, err)
			}
		}()
	}
	simWG.Wait()
	close(done)
	wg.Wait()
}
