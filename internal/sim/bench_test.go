package sim

import (
	"testing"
	"time"

	"tetriserve/internal/core"
	"tetriserve/internal/lifecycle"
	"tetriserve/internal/telemetry"
	"tetriserve/internal/workload"
)

// backlogTrace is the sim-backlog shape: 4 000 Uniform-mix requests at
// 60/min, about twice what one 8-GPU shard serves, so with no drop policy
// the planner sees a pending queue about 670 deep on average.
func backlogTrace() []*workload.Request {
	return workload.Generate(workload.GeneratorConfig{
		Model:       testMdl,
		Mix:         workload.UniformMix(),
		Arrivals:    workload.PoissonArrivals{PerMinute: 60},
		SLO:         workload.NewSLOPolicy(1.0),
		NumRequests: 4000,
		Seed:        1,
	})
}

// BenchmarkRunBacklog times one simulation of the backlog trace with the
// lifecycle recorder and the telemetry plane attached, as a serving shard
// (server.NewDriver) attaches them: the deep-queue round end to end —
// partition, late lane, queue upkeep and hook fan-out.
func BenchmarkRunBacklog(b *testing.B) {
	reqs := backlogTrace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec := lifecycle.NewRecorder(lifecycle.Config{Capacity: len(reqs)})
		plane := telemetry.NewPlane()
		_, err := Run(Config{
			Model: testMdl, Topo: testTopo, Profile: testProf, Requests: reqs,
			Scheduler:      core.NewScheduler(testProf, testTopo, core.DefaultConfig()),
			Hooks:          rec.Hooks().Then(plane.Hooks()),
			MaxVirtualTime: 1000 * time.Hour,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
