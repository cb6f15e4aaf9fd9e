package experiments

// Elastic serving: the rebalancer moves GPUs between shards at round
// boundaries, so a partitioned fleet can follow a shifting mix instead of
// being stuck with the split it was provisioned with. The golden scenario
// runs a bursty trace whose resolution mix flips halfway — image-heavy, then
// high-res-heavy — and compares three planes of equal total capacity: one
// 8-GPU monolith, a static 4x2 split behind the router, and the same 4-shard
// split with elastic rebalancing enabled. The static split wins the first
// half and drowns in the second (2-GPU shards cannot raise their degree);
// the elastic fleet consolidates GPUs under the shards that win the high-res
// traffic and holds attainment through the shift.

import (
	"fmt"

	"tetriserve/internal/core"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/metrics"
	"tetriserve/internal/model"
	"tetriserve/internal/sim"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/tablefmt"
	"tetriserve/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "elastic1",
		Title: "Elastic serving — GPU rebalancing across 4 shards vs static 4x2 split vs one 8-GPU loop (shifting mix)",
		Summary: "Runs a bursty FLUX trace whose mix flips from image-heavy to high-res-heavy halfway and compares " +
			"SLO attainment over the offered load for a monolith, a static 4x2-GPU routed split, and the same " +
			"split with round-boundary GPU rebalancing between shards.",
		Run: runElastic1,
	})
	register(Experiment{
		ID:    "hetero1",
		Title: "Heterogeneous shards — deadline router over a 4+2+1+1 GPU split (bursty mix)",
		Summary: "Routes a bursty FLUX mix across one 4-GPU and three smaller shards: the feasibility probe " +
			"steers high-resolution requests to the only shard whose degree can win their deadlines, while " +
			"small requests fill the 1-GPU shards.",
		Run: runHetero1,
	})
}

// shiftingTrace generates a bursty trace whose resolution mix flips halfway:
// the first half is image-heavy (mostly 256/512), the second half high-res
// heavy (mostly 1024). The second half is re-based to start where the first
// ends, and IDs are renumbered to stay unique and arrival-ordered.
func shiftingTrace(ctx Context, mdl *model.Model, rate float64, sloScale float64) []*workload.Request {
	imageMix, err := workload.CustomMix("image-heavy",
		[]model.Resolution{model.Res256, model.Res512, model.Res1024},
		[]float64{0.50, 0.40, 0.10})
	if err != nil {
		panic(err)
	}
	hiresMix, err := workload.CustomMix("hires-heavy",
		[]model.Resolution{model.Res256, model.Res512, model.Res1024},
		[]float64{0.15, 0.15, 0.70})
	if err != nil {
		panic(err)
	}
	half := ctx.NumRequests / 2
	gen := func(mix workload.Mix, n int, seed uint64) []*workload.Request {
		return workload.Generate(workload.GeneratorConfig{
			Model:       mdl,
			Mix:         mix,
			Arrivals:    workload.NewBurstyArrivals(rate),
			SLO:         workload.NewSLOPolicy(sloScale),
			NumRequests: n,
			Seed:        seed,
		})
	}
	first := gen(imageMix, half, ctx.Seed)
	second := gen(hiresMix, ctx.NumRequests-half, ctx.Seed+1)
	offset := first[len(first)-1].Arrival
	for _, r := range second {
		r.ID += workload.RequestID(half)
		r.Arrival += offset
	}
	return append(first, second...)
}

// elasticShardSpecs builds n shards that each SEE the full fleet topology but
// OWN only a gpus-wide slice of it at start. The shared full-size profile is
// what lets a shard plan high-degree blocks the moment rebalancing grows it.
func elasticShardSpecs(mdl *model.Model, n, gpus int) []sim.ShardSpec {
	specs := make([]sim.ShardSpec, n)
	for i := range specs {
		topo := simgpu.H100x8()
		prof := costmodel.BuildProfile(costmodel.NewEstimator(mdl, topo), costmodel.ProfilerConfig{})
		specs[i] = sim.ShardSpec{
			Name:      fmt.Sprintf("shard%d", i),
			Topo:      topo,
			Scheduler: core.NewScheduler(prof, topo, core.DefaultConfig()),
			Profile:   prof,
			Capacity:  simgpu.MaskRange(0, gpus),
		}
	}
	return specs
}

// elastic1SLOScale pins the regime the experiment depends on: at 1.2x, 1024px
// at degree 2 is marginal, so a 2-GPU shard can barely win high-res deadlines
// — growing one shard to degree 4 changes feasibility, not just queueing.
const elastic1SLOScale = 1.2

// elastic1Planes holds the three serving planes' raw results so the headline
// inequality (elastic beats static and monolith) is testable without parsing
// rendered tables.
type elastic1Planes struct {
	mono                  *sim.Result
	monoErr               error
	static, elastic       *sim.ShardedResult
	staticErr, elasticErr error
}

func runElastic1Planes(ctx Context) elastic1Planes {
	ctx = ctx.withDefaults()
	f := fix("flux-h100")
	rate := 2.5 * ctx.Rate

	var p elastic1Planes
	// Monolith: one 8-GPU loop, no admission control.
	p.mono, p.monoErr = sim.Run(sim.Config{
		Model:           f.mdl,
		Topo:            f.topo,
		Scheduler:       newTetri(f),
		Requests:        shiftingTrace(ctx, f.mdl, rate, elastic1SLOScale),
		Profile:         f.prof,
		DropLateFactor:  4.0,
		CheckInvariants: ctx.Quick,
	})
	runSplit := func(reb *sim.RebalanceConfig) (*sim.ShardedResult, error) {
		return sim.RunSharded(sim.ShardedConfig{
			Model:           f.mdl,
			Shards:          elasticShardSpecs(f.mdl, 4, 2),
			Requests:        shiftingTrace(ctx, f.mdl, rate, elastic1SLOScale),
			Rebalance:       reb,
			Lifecycle:       true,
			DropLateFactor:  4.0,
			CheckInvariants: ctx.Quick,
		})
	}
	p.static, p.staticErr = runSplit(nil)
	// The fixed policy (1-GPU moves, 2s drain gap, 2s cadence) is enough:
	// the only scenario-specific setting is probing at the trace's SLO scale.
	p.elastic, p.elasticErr = runSplit(&sim.RebalanceConfig{ProbeSLOScale: elastic1SLOScale})
	return p
}

func runElastic1(ctx Context) []*tablefmt.Table {
	p := runElastic1Planes(ctx)

	tbl := tablefmt.New("Elastic serving: shifting bursty mix (image-heavy -> high-res-heavy), equal total capacity",
		"Serving plane", "SAR (offered)", "early-reject", "completed", "dropped", "GPU moves", "GPU busy (s)")

	if p.monoErr != nil {
		tbl.AddRow("1x8 monolith", "error: "+p.monoErr.Error(), "-", "-", "-", "-", "-")
	} else {
		dropped := 0
		for _, o := range p.mono.Outcomes {
			if o.Dropped {
				dropped++
			}
		}
		tbl.AddRow("1x8 monolith", fm(metrics.SAR(p.mono)), "0.00",
			fmt.Sprint(len(p.mono.Outcomes)-dropped), fmt.Sprint(dropped), "0", fm(p.mono.GPUBusySeconds))
	}
	addSplit := func(label string, res *sim.ShardedResult, err error) {
		if err != nil {
			tbl.AddRow(label, "error: "+err.Error(), "-", "-", "-", "-", "-")
			return
		}
		dropped := shardedDropped(res)
		completed := 0
		for _, s := range res.Shards {
			completed += len(s.Outcomes)
		}
		tbl.AddRow(label, fm(offeredSAR(res)), fm(res.Router.EarlyRejectRate),
			fmt.Sprint(completed-dropped), fmt.Sprint(len(res.Rejected)+dropped),
			fmt.Sprint(len(res.Rebalances)), fm(shardedBusy(res)))
	}
	addSplit("static 4x2 + router", p.static, p.staticErr)
	addSplit("elastic 4-shard + router", p.elastic, p.elasticErr)

	tbl.AddNote("equal total capacity: 8 H100 per plane; identical shifting trace (mix flips at the halfway request)")
	tbl.AddNote("SAR (offered) counts router-rejected requests as misses; GPU moves = applied rebalance donations")
	tbl.AddNote("elastic shards share one full-size profile and own capacity slices; moves land at round boundaries")

	out := []*tablefmt.Table{tbl}
	if p.elasticErr == nil && p.elastic != nil && len(p.elastic.Rebalances) > 0 {
		moves := tablefmt.New("Elastic serving: applied GPU moves", "t (s)", "from", "to", "donated slot", "received slot")
		for _, ev := range p.elastic.Rebalances {
			moves.AddRow(fm(ev.At.Seconds()),
				p.elastic.Router.Shards[ev.From].Name, p.elastic.Router.Shards[ev.To].Name,
				ev.Donated.String(), ev.Received.String())
		}
		moves.AddNote("slot ids are per-shard (each shard owns a slice of its own 8-wide id space)")
		out = append(out, moves)
	}
	if p.staticErr == nil && p.elasticErr == nil && p.static != nil && p.elastic != nil {
		out = append(out, phaseDecomposition("Elastic serving: phase decomposition (static vs elastic)",
			[]phasePlane{
				{label: "static 4x2 + router", recs: p.static.Lifecycles},
				{label: "elastic 4-shard + router", recs: p.elastic.Lifecycles},
			}))
	}
	return out
}

// heteroShardSpecs builds the 4+2+1+1 split used by hetero1.
func heteroShardSpecs(mdl *model.Model, sizes []int) []sim.ShardSpec {
	specs := make([]sim.ShardSpec, len(sizes))
	for i, gpus := range sizes {
		topo := simgpu.H100xN(gpus)
		prof := costmodel.BuildProfile(costmodel.NewEstimator(mdl, topo), costmodel.ProfilerConfig{})
		specs[i] = sim.ShardSpec{
			Name:      fmt.Sprintf("shard%dg-%d", gpus, i),
			Topo:      topo,
			Scheduler: core.NewScheduler(prof, topo, core.DefaultConfig()),
			Profile:   prof,
		}
	}
	return specs
}

// heteroTrace is the bursty mix hetero1 routes: enough 1024s that degree
// matters, enough small requests that the 1-GPU shards stay useful.
func heteroTrace(ctx Context, mdl *model.Model) []*workload.Request {
	mix, err := workload.CustomMix("hetero-bursty",
		[]model.Resolution{model.Res256, model.Res512, model.Res1024},
		[]float64{0.35, 0.35, 0.30})
	if err != nil {
		panic(err)
	}
	return workload.Generate(workload.GeneratorConfig{
		Model:       mdl,
		Mix:         mix,
		Arrivals:    workload.NewBurstyArrivals(2 * ctx.Rate),
		SLO:         workload.NewSLOPolicy(1.2),
		NumRequests: ctx.NumRequests,
		Seed:        ctx.Seed,
	})
}

// runHeteroSim runs the hetero1 scenario; split out so the affinity test can
// inspect routing decisions without rendering tables.
func runHeteroSim(ctx Context) (*sim.ShardedResult, []*workload.Request, error) {
	f := fix("flux-h100")
	reqs := heteroTrace(ctx, f.mdl)
	res, err := sim.RunSharded(sim.ShardedConfig{
		Model:           f.mdl,
		Shards:          heteroShardSpecs(f.mdl, []int{4, 2, 1, 1}),
		Requests:        reqs,
		DropLateFactor:  4.0,
		CheckInvariants: ctx.Quick,
	})
	return res, reqs, err
}

func runHetero1(ctx Context) []*tablefmt.Table {
	ctx = ctx.withDefaults()
	res, reqs, err := runHeteroSim(ctx)
	tbl := tablefmt.New("Heterogeneous shards: router placement over a 4+2+1+1 GPU split (bursty 2x rate, 1.2x SLO)",
		"Shard", "routed", "routed 1024px", "completed", "SAR (admitted)", "GPU busy (s)")
	if err != nil {
		tbl.AddRow("error", err.Error(), "-", "-", "-", "-")
		return []*tablefmt.Table{tbl}
	}
	byID := make(map[workload.RequestID]*workload.Request, len(reqs))
	for _, r := range reqs {
		byID[r.ID] = r
	}
	hires := make([]int, len(res.Shards))
	for id, shard := range res.Routed {
		if byID[id].Res == model.Res1024 {
			hires[shard]++
		}
	}
	for i, st := range res.Router.Shards {
		s := res.Shards[i]
		tbl.AddRow(st.Name, fmt.Sprint(st.Routed), fmt.Sprint(hires[i]),
			fmt.Sprint(len(s.Outcomes)), fm(metrics.SAR(s)), fm(s.GPUBusySeconds))
	}
	tbl.AddRow("(rejected)", fmt.Sprint(len(res.Rejected)), "-", "-", "-", "-")
	tbl.AddNote("the feasibility probe concentrates 1024px requests on the 4-GPU shard: only its degrees win their deadlines")
	tbl.AddNote("SAR (admitted) is per-shard attainment over the requests the router placed there")
	return []*tablefmt.Table{tbl}
}
