package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/core"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/lifecycle"
	"tetriserve/internal/metrics"
	"tetriserve/internal/model"
	"tetriserve/internal/router"
	"tetriserve/internal/sim"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/stats"
	"tetriserve/internal/telemetry"
	"tetriserve/internal/workload"
)

// A sim repetition runs in one of four ways. Untraced runs use plain only.
// Traced runs alternate plain and traced (their wall-time ratio is the
// tracing overhead) with a checked repetition, which attaches the invariant
// oracle instead of the decorators so that the oracle's cost stays out of
// the spans; sim-fleet adds a repetition with the lifecycle recorder off,
// whose saving is what the recorder costs. All must agree on every outcome.
type variant int

const (
	plain variant = iota
	traced
	checked
	noLifecycle
)

// maxVirtual lets an overload backlog drain: the default 4 h cap is an
// experiment-harness guard, not part of the system under test.
const maxVirtual = 1000 * time.Hour

// simOut is what one repetition produced, reduced to what the metrics and
// the output checks need.
type simOut struct {
	hash      uint64
	offered   int
	results   []*control.Result // one per shard
	warm      core.WarmStats    // summed over shards
	recs      []*lifecycle.Recorder
	traceKeys []string // keys of timelines worth sampling from recs
	router    router.Stats
	probes    int
	moves     int
}

// setupTimes are the parts of set-up that are layer metrics of their own.
type setupTimes struct{ profile, generate time.Duration }

// simWorkload is one sim workload after set-up: exec runs one repetition.
type simWorkload struct {
	variants []variant // for a traced run; an untraced run uses plain only
	times    setupTimes
	exec     func(v variant, tr *tracer) (*simOut, error)
}

func buildProfile(mdl *model.Model, topo *simgpu.Topology) *costmodel.Profile {
	return costmodel.BuildProfile(costmodel.NewEstimator(mdl, topo), costmodel.ProfilerConfig{})
}

// setupBacklog prepares sim-backlog: one 8-GPU shard offered about twice
// what it can serve, with no drop policy, so the pending queue the planner
// sees grows into the hundreds and thousands. The lifecycle recorder and the
// telemetry plane observe the loop exactly as the live driver attaches them.
func setupBacklog(e env) simWorkload {
	mdl := model.FLUX()
	t0 := time.Now()
	topo := simgpu.H100x8()
	prof := buildProfile(mdl, topo)
	t1 := time.Now()
	reqs := generate(workload.GeneratorConfig{
		Model:       mdl,
		NumRequests: e.BacklogRequests,
		Seed:        e.seed,
		Mix:         uniformMix(),
		Arrivals:    workload.PoissonArrivals{PerMinute: 60},
		SLO:         workload.NewSLOPolicy(1.0),
	}, 60)
	t2 := time.Now()
	keys := make([]string, len(reqs))
	for i, r := range reqs {
		keys[i] = fmt.Sprint(int(r.ID))
	}
	return simWorkload{
		variants: []variant{plain, traced, checked},
		times:    setupTimes{profile: t1.Sub(t0), generate: t2.Sub(t1)},
		exec: func(v variant, tr *tracer) (*simOut, error) {
			sc := core.NewScheduler(prof, topo, core.DefaultConfig())
			rec := lifecycle.NewRecorder(lifecycle.Config{Capacity: len(reqs)})
			plane := telemetry.NewPlane()
			cfg := sim.Config{
				Model: mdl, Topo: topo, Profile: prof, Requests: reqs,
				Scheduler:       sc,
				Hooks:           rec.Hooks().Then(plane.Hooks()),
				MaxVirtualTime:  maxVirtual,
				CheckInvariants: v == checked,
			}
			if v == traced {
				cfg.Scheduler = &tracedScheduler{Scheduler: sc, tr: tr, parent: func() int { return tr.simRoot }}
				cfg.Hooks = tracedHooks(tr, spHookLifecycle, rec.Hooks()).
					Then(tracedHooks(tr, spHookTelemetry, plane.Hooks()))
				tr.simRoot = tr.begin(spSimRun, 0, len(reqs))
				defer func() { tr.simRoot = 0 }()
			}
			res, err := sim.Run(cfg)
			if v == traced {
				tr.end(tr.simRoot)
			}
			if err != nil {
				return nil, err
			}
			return &simOut{
				hash:      hashOutcomes([]*control.Result{res}, nil),
				offered:   len(reqs),
				results:   []*control.Result{res},
				warm:      sumWarm([]*core.Scheduler{sc}),
				recs:      []*lifecycle.Recorder{rec},
				traceKeys: keys,
			}, nil
		},
	}
}

// deckMix deals resolutions from a shuffled deck that holds each resolution
// in its exact share, reshuffled when it runs out. The seed still decides the
// order of arrivals, but every seed offers the same work per class to within
// one deck, which keeps run-to-run spread an order below what independent
// draws give an overloaded queue (where a 3 % swing in offered work is a 6 %
// swing in backlog).
type deckMix struct {
	name string
	res  []model.Resolution
	deck []model.Resolution
	left int
}

func newDeckMix(name string, res []model.Resolution, copies []int) *deckMix {
	m := &deckMix{name: name, res: res}
	for i, r := range res {
		for c := 0; c < copies[i]; c++ {
			m.deck = append(m.deck, r)
		}
	}
	return m
}

func (m *deckMix) Name() string { return m.name }

func (m *deckMix) Sample(rng *stats.RNG) model.Resolution {
	if m.left == 0 {
		rng.Shuffle(len(m.deck), func(i, j int) { m.deck[i], m.deck[j] = m.deck[j], m.deck[i] })
		m.left = len(m.deck)
	}
	m.left--
	return m.deck[m.left]
}

func (m *deckMix) Resolutions() []model.Resolution { return m.res }

// generate draws a trace and then stretches its arrival times so that the
// last request arrives exactly when perMinute says it should: the gaps keep
// the shape the seed gave them, and every seed offers the same mean rate.
func generate(cfg workload.GeneratorConfig, perMinute float64) []*workload.Request {
	reqs := workload.Generate(cfg)
	span := time.Duration(float64(len(reqs)) / perMinute * float64(time.Minute))
	scale := float64(span) / float64(reqs[len(reqs)-1].Arrival)
	for _, r := range reqs {
		r.Arrival = time.Duration(float64(r.Arrival) * scale)
	}
	return reqs
}

// uniformMix is the paper's Uniform mix over the four standard resolutions.
func uniformMix() workload.Mix {
	return newDeckMix("Uniform", model.StandardResolutions(), []int{5, 5, 5, 5})
}

// fleetMix is the routed workloads' resolution mix, 35/35/30: the three
// classes a 2-GPU shard serves within their SLOs.
func fleetMix() workload.Mix {
	return newDeckMix("256/512/1024",
		[]model.Resolution{model.Res256, model.Res512, model.Res1024}, []int{7, 7, 6})
}

// Every workload serves with eight GPUs: one 8-GPU shard, or four shards of
// two (elastic rebalancing moves GPUs between shards but keeps the total).
const (
	fleetShards = 4
	fleetGPUs   = 8
)

// setupFleet prepares sim-fleet: four 2-GPU shards (sliced from 8-GPU nodes
// so the elastic rebalancer can move GPUs), two tenants weighted 3:1 but
// offering equal load, at a rate the fleet can mostly serve. Queues stay
// shallow, so the planner is cheap and the router, the probes, the
// rebalancer and the lifecycle recorder carry the run.
func setupFleet(e env) simWorkload {
	mdl := model.FLUX()
	t0 := time.Now()
	topos := make([]*simgpu.Topology, fleetShards)
	profs := make([]*costmodel.Profile, fleetShards)
	for i := range topos {
		topos[i] = simgpu.H100x8()
		profs[i] = buildProfile(mdl, topos[i])
	}
	t1 := time.Now()
	reqs := generate(workload.GeneratorConfig{
		Model:       mdl,
		NumRequests: e.FleetRequests,
		Seed:        e.seed,
		Mix:         fleetMix(),
		Arrivals:    workload.NewBurstyArrivals(30),
		SLO:         workload.NewSLOPolicy(1.2),
	}, 30)
	t2 := time.Now()
	return simWorkload{
		variants: []variant{plain, traced, checked, noLifecycle},
		times:    setupTimes{profile: t1.Sub(t0), generate: t2.Sub(t1)},
		exec: func(v variant, tr *tracer) (*simOut, error) {
			out := &simOut{offered: len(reqs)}
			scheds := make([]*core.Scheduler, fleetShards)
			specs := make([]sim.ShardSpec, fleetShards)
			for i := range specs {
				scheds[i] = core.NewScheduler(profs[i], topos[i], core.DefaultConfig())
				specs[i] = sim.ShardSpec{
					Name: fmt.Sprintf("shard%d", i), Topo: topos[i], Profile: profs[i],
					Scheduler: scheds[i],
					Capacity:  simgpu.MaskRange(0, 2),
				}
				if v == traced {
					specs[i].Scheduler = &tracedScheduler{Scheduler: scheds[i], tr: tr, parent: func() int { return tr.simRoot }}
				}
			}
			cfg := sim.ShardedConfig{
				Model: mdl, Shards: specs, Requests: reqs,
				Tenant: func(r *workload.Request) string {
					if r.ID%2 == 0 {
						return "gold"
					}
					return "bronze"
				},
				Router: router.Config{
					TenantWeights: map[string]float64{"gold": 3, "bronze": 1},
					Observer:      func(d router.Decision) { out.probes += len(d.Probes) },
				},
				Rebalance:       &sim.RebalanceConfig{},
				Lifecycle:       v != noLifecycle,
				DropLateFactor:  4,
				CheckInvariants: v == checked,
				MaxVirtualTime:  maxVirtual,
			}
			if v == traced {
				tr.simRoot = tr.begin(spSimRun, 0, len(reqs))
				defer func() { tr.simRoot = 0 }()
			}
			res, err := sim.RunSharded(cfg)
			if v == traced {
				tr.end(tr.simRoot)
			}
			if err != nil {
				return nil, err
			}
			if got := res.Offered(); got != len(reqs) {
				return nil, fmt.Errorf("offered %d != admitted+rejected %d", len(reqs), got)
			}
			if err := checkRouted(res); err != nil {
				return nil, err
			}
			out.warm = sumWarm(scheds)
			rejected := make([]workload.RequestID, len(res.Rejected))
			for i, rj := range res.Rejected {
				rejected[i] = rj.Req.ID
			}
			out.hash = hashOutcomes(res.Shards, rejected)
			out.results = res.Shards
			out.recs = res.Lifecycles
			out.router = res.Router
			out.moves = len(res.Rebalances)
			// The recorders keep their newest timelines only; sample every
			// 16th request and skip the evicted ones.
			for i := 0; i < len(reqs); i += 16 {
				out.traceKeys = append(out.traceKeys, reqs[i].TraceID)
			}
			return out, nil
		},
	}
}

// sumWarm adds up the schedulers' warm-start counters. The loops that drive
// the schedulers must have finished.
func sumWarm(scheds []*core.Scheduler) (sum core.WarmStats) {
	for _, s := range scheds {
		w := s.Warm()
		sum.ReplayHits += w.ReplayHits
		sum.ResumedRows += w.ResumedRows
		sum.ColdRows += w.ColdRows
	}
	return sum
}

// checkRouted verifies that every admitted request reached exactly one
// terminal state on exactly the shard it was routed to.
func checkRouted(res *sim.ShardedResult) error {
	seen := make(map[workload.RequestID]bool, len(res.Routed))
	for i, s := range res.Shards {
		for _, o := range s.Outcomes {
			if shard, ok := res.Routed[o.ID]; !ok || shard != i {
				return fmt.Errorf("request %d finished on shard %d, routed to %d (admitted %v)", o.ID, i, shard, ok)
			}
			if seen[o.ID] {
				return fmt.Errorf("request %d has two terminal states", o.ID)
			}
			seen[o.ID] = true
		}
	}
	if len(seen) != len(res.Routed) {
		return fmt.Errorf("%d admitted requests, %d terminal states", len(res.Routed), len(seen))
	}
	return nil
}

// hashOutcomes folds every request's fate into one number; two runs of the
// same inputs must agree on it bit for bit.
func hashOutcomes(shards []*control.Result, rejected []workload.RequestID) uint64 {
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for i, s := range shards {
		word(uint64(i))
		for _, o := range s.Outcomes {
			flags := uint64(0)
			if o.Met {
				flags |= 1
			}
			if o.Dropped {
				flags |= 2
			}
			word(uint64(o.ID))
			word(uint64(o.Completion))
			word(uint64(o.Latency))
			word(math.Float64bits(o.AvgDegree))
			word(flags)
		}
	}
	for _, id := range rejected {
		word(uint64(id))
	}
	return h.Sum64()
}

// timeSetups sets up setupReps times (or until setup reports failure), each
// time from a collected heap so that no set-up pays for another's garbage,
// and returns the median time in seconds.
func timeSetups(setup func() bool) float64 {
	var took []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if !setup() {
			break
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return median(took)
}

// runSim measures one sim workload: set-up several times, then repetitions
// of the whole simulation until the window is spent.
func runSim(e env, setup func(env) simWorkload) *result {
	r := newResult(e.traced)
	var w simWorkload
	r.set("setup_s", timeSetups(func() bool { w = setup(e); return true }))
	r.set("costmodel.build_profile_ms", ms(w.times.profile))
	r.set("workload.generate_ms", ms(w.times.generate))

	variants := []variant{plain}
	var tr *tracer
	if e.traced {
		variants = w.variants
		tr = newTracer(0)
	}
	walls := map[variant][]float64{}
	agg := new(spanAgg)
	var first, last *simOut // last is the newest repetition with the recorder on
	var lastSpans []span
	// One discarded repetition first: it grows the heap to its working size.
	if _, err := w.exec(plain, nil); err != nil {
		r.Attempted++
		r.fail(1, "warm-up repetition: %v", err)
		r.finish()
		return r
	}
	var cpus []float64 // CPU milliseconds per request, one per plain repetition
	start := time.Now()
	for rep := 0; ; rep++ {
		v := variants[rep%len(variants)]
		// Every repetition starts from a collected heap, so that one
		// repetition's garbage is not the next one's GC bill.
		runtime.GC()
		t0, cpu0 := time.Now(), cpuTime()
		out, err := w.exec(v, tr)
		wall := time.Since(t0)
		cpu := cpuTime() - cpu0
		if err != nil {
			r.Attempted++
			r.fail(1, "repetition %d: %v", rep, err)
			r.finish()
			return r
		}
		walls[v] = append(walls[v], ms(wall))
		if v == plain {
			cpus = append(cpus, ms(cpu)/float64(out.offered))
		}
		r.Attempted += out.offered
		if first == nil {
			first = out
		} else if out.hash != first.hash {
			r.fail(out.offered, "repetition %d: outcome hash %x differs from the first repetition's %x", rep, out.hash, first.hash)
		}
		if v == plain || v == traced {
			last = out
		}
		if v == traced {
			agg.fold(tr.spans)
			lastSpans = append(lastSpans[:0], tr.spans[:min(len(tr.spans), maxDumpSpans)]...)
			tr.reset()
		}
		// Stop once the next repetition would overrun the window, but not
		// before every variant has run.
		if rep+1 >= len(variants) && time.Since(start)+wall > e.seconds {
			break
		}
	}

	r.setPct("call_p50_ms", walls[plain], 50)
	r.setPct("cpu_ms_per_req", cpus, 50)
	r.set("peak_rss_mb", peakRSSMB())

	repWall := median(walls[plain])
	r.set("sim.req_per_s", ratio(float64(last.offered), repWall/1000))
	r.setPct("sim.rep_wall_ms_p50", walls[plain], 50)
	r.set("sim.rep_spread_pct", 100*spread(walls[plain]))
	if e.traced {
		// A traced run splits its window over several variants, so each has
		// only a few repetitions; the fastest of each is the one the machine
		// disturbed least, and the variants are compared on those.
		best := func(v variant) float64 { return slices.Min(walls[v]) }
		r.set("bench.tracing_overhead_pct", 100*(ratio(best(traced), best(plain))-1))
		if len(walls[noLifecycle]) > 0 {
			r.set("lifecycle.overhead_share", 1-ratio(best(noLifecycle), best(plain)))
		}
		reps := float64(len(walls[traced]))
		agg.planMetrics(r, reps, repWall)
		r.set("control.self_ms", ratio(sum(agg.self[spSimRun]), reps)/1e3)
		r.set("lifecycle.hook_busy_ms", ratio(sum(agg.durs[spHookLifecycle]), reps)/1e3)
		r.set("telemetry.hook_busy_ms", ratio(sum(agg.durs[spHookTelemetry]), reps)/1e3)
		if err := dumpSpans(e.spanFile(), lastSpans); err != nil {
			r.fail(1, "writing spans: %v", err)
		}
	}
	reportResults(r, last)
	r.finish()
	return r
}

// reportResults reports what the control loops' results carry: the
// end-to-end attainment and latency, and the per-layer counts.
func reportResults(r *result, out *simOut) {
	var met, dropped, runs, plans, ticks, planRejected, startFailed, remaps, warmups, preempted int
	var busy, makespan, degreeSteps, steps float64
	var lat []float64
	for _, s := range out.results {
		lat = append(lat, metrics.CompletedLatencies(s)...)
		for _, o := range s.Outcomes {
			if o.Met {
				met++
			}
			if o.Dropped {
				dropped++
			}
		}
		runs += len(s.Runs)
		plans += s.PlanCalls
		ticks += s.RoundTicks
		planRejected += s.PlanRejected
		startFailed += s.StartFailed
		remaps += s.Remaps
		warmups += s.Warmups
		preempted += s.RunsPreempted
		busy += s.GPUBusySeconds
		makespan = math.Max(makespan, s.Makespan.Seconds())
		for _, run := range s.Runs {
			degreeSteps += float64(run.Degree * run.Steps)
			steps += float64(run.Steps)
		}
	}
	r.set("sar_offered", ratio(float64(met), float64(out.offered)))
	r.set("req_latency_mean_s", stats.Mean(lat))
	r.setPct("req_latency_p99_s", lat, 99)
	r.setPct("control.req_latency_p50_s", lat, 50)
	r.set("control.round_ticks", float64(ticks))
	r.set("control.plan_rejected", float64(planRejected))
	r.set("control.start_failed", float64(startFailed))
	r.set("control.dropped_share", ratio(float64(dropped), float64(out.offered)))
	r.set("engine.runs", float64(runs))
	r.set("engine.gpu_busy_share", ratio(busy, fleetGPUs*makespan))
	r.set("engine.mean_degree", ratio(degreeSteps, steps))
	r.set("engine.remaps", float64(remaps))
	r.set("engine.warmups", float64(warmups))
	r.set("engine.runs_preempted", float64(preempted))
	r.set("core.replay_hit_share", ratio(float64(out.warm.ReplayHits), float64(plans)))
	r.set("core.resumed_row_share", ratio(float64(out.warm.ResumedRows), float64(out.warm.ResumedRows+out.warm.ColdRows)))
	r.set("router.decisions", float64(out.router.Decisions))
	r.set("router.early_reject_share", out.router.EarlyRejectRate)
	r.set("router.shed_share", ratio(float64(out.router.Shed), float64(out.router.Decisions)))
	r.set("router.probes_per_decision", ratio(float64(out.probes), float64(out.router.Decisions)))
	r.set("router.probe_cache_hit_share", ratio(float64(out.router.ProbeCacheHits),
		float64(out.router.ProbeCacheHits+out.router.ProbeCacheMisses)))
	r.set("rebalance.moves", float64(out.moves))

	var finalized, spans int
	var waits []float64
	sampled := 0
	for _, rec := range out.recs {
		finalized += rec.Finalized()
	}
	for _, key := range out.traceKeys {
		for _, rec := range out.recs {
			if tl, ok := rec.Lookup(key); ok {
				phases := tl.PhaseSeconds()
				waits = append(waits, phases[lifecycle.SpanPlanWait]+phases[lifecycle.SpanQueue])
				spans += len(tl.Spans)
				sampled++
				break
			}
		}
	}
	r.set("lifecycle.finalized", float64(finalized))
	r.set("lifecycle.spans_per_request", ratio(float64(spans), float64(sampled)))
	r.setPct("control.queue_wait_p50_s", waits, 50)
	r.setPct("control.queue_wait_p99_s", waits, 99)
}

// spanAgg folds recorded spans into per-name duration and self-time samples,
// in microseconds.
type spanAgg struct {
	durs, self [numNames][]float64
	// Plan spans carry the pending depth they planned over.
	depthSum, depthMax float64
}

func (a *spanAgg) fold(spans []span) {
	self := selfTimes(spans)
	for i, s := range spans {
		a.durs[s.Name] = append(a.durs[s.Name], float64(s.dur())/1e3)
		a.self[s.Name] = append(a.self[s.Name], float64(self[i])/1e3)
		if s.Name == spPlan {
			a.depthSum += float64(s.Arg)
			a.depthMax = math.Max(a.depthMax, float64(s.Arg))
		}
	}
}

// planMetrics reports the planner's share: reps is how many repetitions (or
// windows) the spans cover, wallMS the wall (sims) or CPU (live) time of one.
func (a *spanAgg) planMetrics(r *result, reps, wallMS float64) {
	plans := a.durs[spPlan]
	calls := float64(len(plans))
	busyMS := ratio(sum(plans), reps) / 1e3
	r.set("core.plan_calls", ratio(calls, reps))
	r.set("core.plan_busy_ms", busyMS)
	r.set("core.plan_busy_share", ratio(busyMS, wallMS))
	r.setPct("core.plan_p50_us", plans, 50)
	r.setPct("core.plan_p99_us", plans, 99)
	r.set("core.plan_queue_depth_mean", ratio(a.depthSum, calls))
	r.set("core.plan_queue_depth_max", a.depthMax)
	r.set("core.plan_ns_per_pending", ratio(1e3*sum(plans), a.depthSum))
}
