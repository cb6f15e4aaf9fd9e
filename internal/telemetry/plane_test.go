package telemetry

import (
	"encoding/json"
	"sort"
	"testing"
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/core"
	"tetriserve/internal/engine"
	"tetriserve/internal/lifecycle"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/sim"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/trace"
	"tetriserve/internal/workload"
)

// runPlaneSim runs a simulation with the plane attached and a live trace
// subscription, returning the plane, the result and the drained live feed.
func runPlaneSim(t *testing.T, n int, sloScale float64, mutate ...func(*sim.Config)) (*Plane, *sim.Result, []trace.Event) {
	t.Helper()
	mdl := model.FLUX()
	topo := simgpu.H100x8()
	p := NewPlane()
	p.SetClusterSize(topo.N)
	// Big enough that nothing drops while the single-threaded sim publishes
	// with nobody draining.
	ch, cancel := p.Bus.Subscribe(1 << 16)
	defer cancel()
	cfg := sim.Config{
		Model: mdl,
		Topo:  topo,
		Scheduler: core.NewScheduler(roundsProf, topo,
			core.DefaultConfig()),
		Requests: workload.Generate(workload.GeneratorConfig{
			Model:       mdl,
			Mix:         workload.UniformMix(),
			Arrivals:    workload.PoissonArrivals{PerMinute: 40},
			SLO:         workload.NewSLOPolicy(sloScale),
			NumRequests: n,
			Seed:        7,
		}),
		Profile:         roundsProf,
		DropLateFactor:  1.5,
		Hooks:           p.Hooks(),
		CheckInvariants: true,
	}
	for _, m := range mutate {
		m(&cfg)
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.BindGPUBusy(func() float64 { return res.GPUBusySeconds })
	var live []trace.Event
	for {
		select {
		case ev := <-ch:
			live = append(live, ev)
			continue
		default:
		}
		break
	}
	return p, res, live
}

func TestPlaneCountersMatchResult(t *testing.T) {
	p, res, _ := runPlaneSim(t, 60, 0.9)
	completed, met, dropped := 0, 0, 0
	for _, o := range res.Outcomes {
		if o.Dropped {
			dropped++
			continue
		}
		completed++
		if o.Met {
			met++
		}
	}
	batched := 0
	for _, r := range res.Runs {
		if r.Batched {
			batched++
		}
	}
	snap := p.Registry.Snapshot()
	for key, want := range map[string]float64{
		"tetriserve_requests_total":              float64(len(res.Outcomes)),
		"tetriserve_completed_total":             float64(completed),
		"tetriserve_slo_met_total":               float64(met),
		"tetriserve_plan_calls_total":            float64(res.PlanCalls),
		"tetriserve_round_ticks_total":           float64(res.RoundTicks),
		"tetriserve_plan_latency_seconds_count":  float64(res.PlanCalls),
		`tetriserve_runs_total{batched="true"}`:  float64(batched),
		`tetriserve_runs_total{batched="false"}`: float64(len(res.Runs) - batched),
		"tetriserve_runs_aborted_total":          float64(res.RunsAborted),
		"tetriserve_queue_depth":                 0,
		"tetriserve_running_requests":            0,
		"tetriserve_failed_gpus":                 0,
		"tetriserve_gpus":                        8,
		"tetriserve_gpu_busy_seconds_total":      res.GPUBusySeconds,
	} {
		if got := snap[key]; got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
	}
	droppedSum := 0.0
	e2eCount := 0.0
	for key, v := range snap {
		if len(key) > len("tetriserve_dropped_total") && key[:len("tetriserve_dropped_total")] == "tetriserve_dropped_total" {
			droppedSum += v
		}
		if matchHistCount(key, "tetriserve_e2e_latency_seconds") {
			e2eCount += v
		}
	}
	if droppedSum != float64(dropped) {
		t.Errorf("dropped-by-cause sum = %v, want %v", droppedSum, dropped)
	}
	if e2eCount != float64(completed) {
		t.Errorf("e2e histogram count = %v, want %v", e2eCount, completed)
	}
}

// matchHistCount reports whether key is family's _count series (any labels).
func matchHistCount(key, family string) bool {
	pre := family + "_count"
	if len(key) < len(pre) || key[:len(pre)] != pre {
		return false
	}
	return len(key) == len(pre) || key[len(pre)] == '{'
}

func TestPlaneLiveTraceMatchesSnapshot(t *testing.T) {
	_, res, live := runPlaneSim(t, 40, 0.8)
	want := trace.FromResult(res)
	if len(live) != len(want) {
		t.Fatalf("live feed has %d events, snapshot %d", len(live), len(want))
	}
	// The live stream is hook-ordered (completions surface when the loop
	// processes them, with future decode timestamps), the snapshot is
	// timestamp-ordered; compare as multisets of serialized events.
	if got, wantKeys := eventKeys(live), eventKeys(want); !equalStrings(got, wantKeys) {
		for i := range got {
			if got[i] != wantKeys[i] {
				t.Fatalf("event multiset diverges at %d:\nlive: %s\nsnap: %s", i, got[i], wantKeys[i])
			}
		}
	}
	// The feed must also be analyzable on its own once time-ordered.
	sort.SliceStable(live, func(i, j int) bool {
		if live[i].AtUS != live[j].AtUS {
			return live[i].AtUS < live[j].AtUS
		}
		return kindRankForTest(live[i].Kind) < kindRankForTest(live[j].Kind)
	})
	sum, err := trace.Analyze(live)
	if err != nil {
		t.Fatalf("live feed unanalyzable: %v", err)
	}
	if sum.Requests != len(res.Outcomes) {
		t.Fatalf("analyzer requests = %d, want %d", sum.Requests, len(res.Outcomes))
	}
}

func kindRankForTest(k trace.Kind) int {
	switch k {
	case trace.KindArrival:
		return 0
	case trace.KindBlockEnd:
		return 1
	case trace.KindComplete, trace.KindDrop:
		return 2
	default:
		return 3
	}
}

func eventKeys(evs []trace.Event) []string {
	out := make([]string, len(evs))
	for i, ev := range evs {
		b, err := json.Marshal(ev)
		if err != nil {
			panic(err)
		}
		out[i] = string(b)
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPlaneRoundDurationSkipsIdleGaps: two bursts 60τ apart park the loop in
// between; the round-duration histogram must not record that idle stretch as
// one long round. Every observation stays within τ plus the largest overrun
// deferral. Eager admission is off, so every block starts at a tick and its
// deferral is how far it ends past the next boundary.
func TestPlaneRoundDurationSkipsIdleGaps(t *testing.T) {
	mdl := model.FLUX()
	topo := simgpu.H100x8()
	coreCfg := core.DefaultConfig()
	coreCfg.EagerAdmission = false
	sc := core.NewScheduler(roundsProf, topo, coreCfg)
	tau := sc.RoundDuration()
	var reqs []*workload.Request
	for i := 0; i < 8; i++ {
		at := time.Duration(i%4) * 300 * time.Millisecond
		if i >= 4 {
			at += 60 * tau
		}
		reqs = append(reqs, &workload.Request{
			ID: workload.RequestID(i), Res: model.Res512, Steps: mdl.DefaultSteps,
			Arrival: at, SLO: 10 * time.Second,
		})
	}
	p := NewPlane()
	var tick, overrun time.Duration
	hooks := p.Hooks().Then(control.Hooks{
		RoundTick: func(at, _ time.Duration) { tick = at },
		RunStarted: func(_ time.Duration, run *engine.Run) {
			if d := run.End + time.Microsecond - (tick + tau); run.Asg.RoundAligned && d > overrun {
				overrun = d
			}
		},
	})
	res, err := sim.Run(sim.Config{
		Model: mdl, Topo: topo, Scheduler: sc, Requests: reqs, Profile: roundsProf, Hooks: hooks,
	})
	if err != nil {
		t.Fatal(err)
	}
	bound := (tau + overrun).Seconds()
	le := -1.0
	for _, b := range RoundDurationBuckets {
		if b >= bound {
			le = b
			break
		}
	}
	if le < 0 || le >= (60*tau).Seconds()/2 {
		t.Fatalf("bucket layout cannot separate a round (≤ %vs) from the idle gap", bound)
	}
	snap := p.Registry.Snapshot()
	count := snap["tetriserve_round_duration_seconds_count"]
	within := snap[`tetriserve_round_duration_seconds_bucket{le="`+formatBound(le)+`"}`]
	if count == 0 || count >= float64(res.RoundTicks) {
		t.Fatalf("%v round-duration observations over %d ticks: want some, and fewer than the ticks", count, res.RoundTicks)
	}
	if within != count {
		t.Fatalf("%v of %v round-duration observations exceed %vs (τ %v + overrun %v): an idle gap was recorded",
			count-within, count, le, tau, overrun)
	}
}

func TestPlaneDropCausesAndFaults(t *testing.T) {
	p, res, _ := runPlaneSim(t, 50, 0.25, func(cfg *sim.Config) {
		cfg.DropLateFactor = 1.0 // tight: force expiry/timeout drops
		cfg.Faults = []simgpu.Fault{{GPU: 0, FailAt: 20 * time.Second, RecoverAt: 60 * time.Second}}
	})
	dropped := 0
	for _, o := range res.Outcomes {
		if o.Dropped {
			dropped++
			if o.Cause == "" {
				t.Fatalf("outcome %d dropped without cause", o.ID)
			}
		}
	}
	if dropped == 0 {
		t.Fatal("workload did not provoke any drops; tighten the SLO")
	}
	snap := p.Registry.Snapshot()
	sum := snap[`tetriserve_dropped_total{cause="expired"}`] +
		snap[`tetriserve_dropped_total{cause="timeout"}`] +
		snap[`tetriserve_dropped_total{cause="fault"}`]
	if sum != float64(dropped) {
		t.Fatalf("cause-labeled drops = %v, want %v (snapshot %v)", sum, dropped, snap)
	}
	if res.RunsAborted > 0 && snap["tetriserve_runs_aborted_total"] != float64(res.RunsAborted) {
		t.Fatalf("runs aborted = %v, want %d", snap["tetriserve_runs_aborted_total"], res.RunsAborted)
	}
	// Fault plane returned to service: the failed-GPU gauge must be back
	// to zero after the recovery.
	if snap["tetriserve_failed_gpus"] != 0 {
		t.Fatalf("failed gpus = %v after recovery", snap["tetriserve_failed_gpus"])
	}
	if p.Rounds.Len() == 0 {
		t.Fatal("no rounds recorded")
	}
	degreeSeen := false
	for _, rec := range p.Rounds.Snapshot(0) {
		for _, d := range rec.Decisions {
			if d.Degree < 1 {
				t.Fatalf("decision without degree: %+v", d)
			}
			degreeSeen = true
		}
	}
	if !degreeSeen {
		t.Fatal("no decisions recorded across all rounds")
	}
}

// TestObserveTimelinePhaseSeries: a finalized timeline observes each phase
// it spent time in once, opens no series for a phase it did not, and, once
// its (phase, class) series exist, allocates nothing.
func TestObserveTimelinePhaseSeries(t *testing.T) {
	p := NewPlane()
	tl := &lifecycle.Timeline{Class: "512x512", Tenant: "gold", Met: true, Spans: []lifecycle.Span{
		{Kind: lifecycle.SpanAdmission, StartUS: 0, EndUS: 0},
		{Kind: lifecycle.SpanPlanWait, StartUS: 0, EndUS: 1500},
		{Kind: lifecycle.SpanCompute, StartUS: 1500, EndUS: 4000},
		{Kind: lifecycle.SpanPlanWait, StartUS: 4000, EndUS: 4500},
		{Kind: lifecycle.SpanCompute, StartUS: 4500, EndUS: 9000},
		{Kind: lifecycle.SpanFinish, StartUS: 9000, EndUS: 9000},
	}}
	p.ObserveTimeline(tl)
	snap := p.Registry.Snapshot()
	for _, kind := range []lifecycle.SpanKind{lifecycle.SpanPlanWait, lifecycle.SpanCompute} {
		key := `tetriserve_phase_seconds_sum{phase="` + string(kind) + `",class="512x512"}`
		if got, want := snap[key], tl.PhaseSeconds()[kind]; got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
	}
	if _, ok := snap[`tetriserve_phase_seconds_count{phase="queue",class="512x512"}`]; ok {
		t.Error("a timeline with no queue time opened a queue series")
	}
	if got := testing.AllocsPerRun(100, func() { p.ObserveTimeline(tl) }); got != 0 {
		t.Errorf("ObserveTimeline allocates %v times per timeline, want 0", got)
	}
}

// TestPlaneQueueGaugesFollowBlocks drives the hook sequence a request can
// see and checks both queue gauges after every step: a request is running
// while it belongs to an in-flight block and queued otherwise, between
// blocks included.
func TestPlaneQueueGaugesFollowBlocks(t *testing.T) {
	p := NewPlane()
	h := p.Hooks()
	a := &workload.Request{ID: 1, Res: model.Res512}
	b := &workload.Request{ID: 2, Res: model.Res512}
	block := func(ids ...workload.RequestID) *engine.Run {
		return &engine.Run{Asg: sched.Assignment{Requests: ids}}
	}
	check := func(step string, queued, running float64) {
		t.Helper()
		snap := p.Registry.Snapshot()
		if q, r := snap["tetriserve_queue_depth"], snap["tetriserve_running_requests"]; q != queued || r != running {
			t.Fatalf("after %s: queue_depth %v, running_requests %v; want %v, %v", step, q, r, queued, running)
		}
	}

	h.Admitted(0, a)
	h.Admitted(0, b)
	check("two admissions", 2, 0)
	first := block(1, 2)
	h.RunStarted(1, first)
	check("a block of both starts", 0, 2)
	h.RunFinished(2, first)
	check("the block finishes with steps left", 2, 0)

	second := block(1)
	h.RunStarted(3, second)
	check("a block of one starts", 1, 1)
	h.RunAborted(4, second, map[workload.RequestID]int{1: 3})
	h.Requeued(4, 1, control.RequeueFault)
	check("a fault aborts it and requeues the survivor", 2, 0)

	third := block(1, 2)
	h.RunStarted(5, third)
	check("a block of both starts again", 0, 2)
	h.RunPreempted(6, third, map[workload.RequestID]int{1: 2, 2: 2})
	h.Requeued(6, 1, control.RequeueResize)
	h.Requeued(6, 2, control.RequeueResize)
	check("a resize preempts it", 2, 0)

	last := block(1)
	h.RunStarted(7, last)
	check("the last block starts", 1, 1)
	h.RunFinished(8, last)
	h.Finished(8, control.Outcome{ID: 1, Res: model.Res512, Met: true, Latency: 8})
	check("the last block finishes its request", 1, 0)
	h.Dropped(9, control.Outcome{ID: 2, Res: model.Res512, Dropped: true, Cause: control.DropExpired})
	check("expiry drops the other", 0, 0)
}
