package experiments

import (
	"fmt"
	"slices"
	"time"

	"tetriserve/internal/core"
	"tetriserve/internal/sched"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/stats"
	"tetriserve/internal/tablefmt"
	"tetriserve/internal/workload"
)

func init() {
	register(Experiment{
		ID:      "table6",
		Title:   "Table 6 — Scheduling overhead of exhaustive search (Appendix B)",
		Summary: "Wall-clock time to produce one plan by exhaustive step-level search vs TetriServe's DP, for growing queue depths on 4- and 8-GPU budgets.",
		Run:     runTable6,
	})
}

// table6Instance builds the Appendix-B planning instance: R queued requests,
// each with 5 dependent steps (the Figure 1 toy shape), step times from the
// FLUX profile at mixed resolutions, tight deadlines.
func table6Instance(f *fixture, n, r int, seed uint64) sched.ExhaustiveInstance {
	rng := stats.NewRNG(seed)
	resList := f.prof.Resolutions()
	degrees := []int{}
	for k := 1; k <= n; k *= 2 {
		degrees = append(degrees, k)
	}
	inst := sched.ExhaustiveInstance{N: n, Degrees: degrees}
	for i := 0; i < r; i++ {
		res := resList[rng.Intn(len(resList))]
		steps := 5
		st := map[int]time.Duration{}
		minTotal := time.Duration(1<<62 - 1)
		for _, k := range degrees {
			t := f.prof.StepTime(res, k)
			st[k] = t
			if tot := time.Duration(steps) * t; tot < minTotal {
				minTotal = tot
			}
		}
		arr := time.Duration(i) * 50 * time.Millisecond
		inst.Requests = append(inst.Requests, sched.ExhaustiveRequest{
			Arrival:  arr,
			Deadline: arr + minTotal*3/2,
			Steps:    steps,
			StepTime: st,
		})
	}
	return inst
}

func runTable6(ctx Context) []*tablefmt.Table {
	ctx = ctx.withDefaults()
	f := fix("flux-h100")
	maxR := 4
	if ctx.Quick {
		maxR = 3
	}
	var tables []*tablefmt.Table
	for _, n := range []int{4, 8} {
		t := tablefmt.New(
			fmt.Sprintf("Table 6: exhaustive planning time, %d GPUs (timeout %s)", n, ctx.ExhaustiveTimeout),
			"# Reqs", "Exhaustive (s)", "Explored", "Met", "TetriServe DP (ms)")
		for r := 1; r <= maxR; r++ {
			inst := table6Instance(f, n, r, ctx.Seed+uint64(100*n+r))
			sol := sched.SolveExhaustive(inst, ctx.ExhaustiveTimeout)
			exh := fmt.Sprintf("%.2f", sol.Elapsed.Seconds())
			if sol.TimedOut {
				exh = fmt.Sprintf(">%.2f", ctx.ExhaustiveTimeout.Seconds())
			}
			dpMs := measureDPLatency(f, n, r, ctx.Seed)
			t.AddRow(fmt.Sprint(r), exh, fmt.Sprint(sol.Explored), fmt.Sprint(sol.Met),
				fmt.Sprintf("%.3f", dpMs))
		}
		t.AddNote("exhaustive search explores d^(5R)·R! combinations and explodes past two requests; the DP stays in milliseconds")
		tables = append(tables, t)
	}
	return tables
}

// measureDPLatency times a single TetriServe Plan call over an equivalent
// queue of r requests on an n-GPU topology (milliseconds).
func measureDPLatency(f *fixture, n, r int, seed uint64) float64 {
	topo := f.topo
	if n != topo.N {
		topo = simgpu.H100x8()
		topo.N = n
	}
	sc := core.NewScheduler(f.prof, topo, core.DefaultConfig())
	rng := stats.NewRNG(seed + uint64(n*17+r))
	resList := f.prof.Resolutions()
	var pending []*sched.RequestState
	for i := 0; i < r; i++ {
		res := resList[rng.Intn(len(resList))]
		req := &workload.Request{
			ID:      workload.RequestID(i),
			Res:     res,
			Steps:   5,
			Arrival: 0,
			SLO:     2 * time.Second,
		}
		pending = append(pending, &sched.RequestState{
			Req:       req,
			Remaining: 5,
		})
	}
	ctx := &sched.PlanContext{
		Now:     0,
		Free:    simgpu.MaskRange(0, n),
		Pending: pending,
		Profile: f.prof,
		Topo:    topo,
	}
	// One untimed call sizes the scratch arenas; report the median of five.
	sc.Plan(ctx)
	var samples [5]time.Duration
	for i := range samples {
		start := time.Now()
		sc.Plan(ctx)
		samples[i] = time.Since(start)
	}
	slices.Sort(samples[:])
	return float64(samples[len(samples)/2].Microseconds()) / 1000.0
}
