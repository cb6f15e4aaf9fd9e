package experiments

// Failure sweep: fault tolerance is the scenario the round-based scheduler
// gets almost for free. Because TetriServe re-decides SP degree and
// placement every round (§4), a fail-stop GPU loss is just a smaller free
// mask at the next boundary: aborted blocks are requeued with their
// completed steps credited, and survivors re-pack onto the remaining
// devices (paying latent re-transfer and group re-warm-up, §5). Fixed-SP
// baselines have no such hook — an event-driven policy whose group size no
// longer fits the surviving topology stalls outright.

import (
	"fmt"
	"time"

	"tetriserve/internal/metrics"
	"tetriserve/internal/sched"
	"tetriserve/internal/sim"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/tablefmt"
	"tetriserve/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fault1",
		Title: "Failure sweep — SAR and goodput under fail-stop GPU faults (Uniform, 1.5x)",
		Summary: "Injects 0/1/2 permanent GPU failures mid-trace and compares TetriServe's " +
			"requeue-and-repack recovery against fixed-SP/RSSP baselines and a no-requeue ablation.",
		Run: runFault1,
	})
}

// failureFaults staggers permanent fail-stop faults across the trace: GPU 1
// dies a quarter into the arrival span (breaking buddy slot {0,1} and the
// lower size-4 group), GPU 5 at the midpoint (breaking {4,5} and the upper
// one). Staggering maximizes the chance each fault lands on in-flight work.
func failureFaults(ctx Context, n int) []simgpu.Fault {
	span := time.Duration(float64(ctx.NumRequests) / ctx.Rate * float64(time.Minute))
	all := []simgpu.Fault{
		{GPU: 1, FailAt: span / 4},
		{GPU: 5, FailAt: span / 2},
	}
	return all[:n]
}

// faultCellConfig is one sweep cell's simulation: a private copy of the
// trace under the fault plan and recovery policy. Its caller tolerates a
// run that stalls: an event-driven policy whose fixed group no longer exists
// among the surviving GPUs deadlocks, and that outcome is itself the result.
func faultCellConfig(ctx Context, f *fixture, sc sched.Scheduler, reqs []*workload.Request, faults []simgpu.Fault, noRequeue bool) sim.Config {
	return sim.Config{
		Model:            f.mdl,
		Topo:             f.topo,
		Scheduler:        sc,
		Requests:         cloneRequests(reqs),
		Profile:          f.prof,
		DropLateFactor:   4.0,
		Faults:           faults,
		NoRequeueOnFault: noRequeue,
		CheckInvariants:  ctx.Quick,
	}
}

// goodput is SLO-met requests per minute of makespan.
func goodput(res *sim.Result) float64 {
	if res.Makespan <= 0 {
		return 0
	}
	met := 0
	for _, o := range res.Outcomes {
		if o.Met {
			met++
		}
	}
	return float64(met) / res.Makespan.Minutes()
}

func countDropped(res *sim.Result) int {
	n := 0
	for _, o := range res.Outcomes {
		if o.Dropped {
			n++
		}
	}
	return n
}

func runFault1(ctx Context) []*tablefmt.Table {
	ctx = ctx.withDefaults()
	f := fix("flux-h100")
	reqs := trace(ctx, f, workload.UniformMix(), nil, 1.5)

	type cell struct {
		name   string
		faults int
		mk     func() sched.Scheduler
	}
	var cells []cell
	for nf := 0; nf <= 2; nf++ {
		nf := nf
		cells = append(cells,
			cell{"TetriServe", nf, func() sched.Scheduler { return newTetri(f) }},
			cell{"xDiT SP=2", nf, func() sched.Scheduler { return newFixed(2) }},
			cell{"xDiT SP=4", nf, func() sched.Scheduler { return newFixed(4) }},
			cell{"xDiT SP=8", nf, func() sched.Scheduler { return newFixed(8) }},
			cell{"RSSP", nf, func() sched.Scheduler { return newRSSP(f) }},
		)
	}

	type out struct {
		res *sim.Result
		err error
	}
	results := mapCells(ctx, len(cells), func(i int) out {
		c := cells[i]
		r, err := sim.Run(faultCellConfig(ctx, f, c.mk(), reqs, failureFaults(ctx, c.faults), false))
		return out{r, err}
	})

	sweep := tablefmt.New("Failure sweep: fail-stop GPU faults vs scheduler (8xH100, Uniform, 1.5x)",
		"Scheduler", "faults", "SAR", "goodput (met/min)", "completed", "dropped", "aborted runs", "remaps")
	for i, c := range cells {
		o := results[i]
		if o.err != nil {
			sweep.AddRow(c.name, fmt.Sprint(c.faults), "stalled", "-", "-", "-", "-", "-")
			continue
		}
		r := o.res
		sweep.AddRow(c.name, fmt.Sprint(c.faults),
			fm(metrics.SAR(r)), fm(goodput(r)),
			fmt.Sprint(len(r.Outcomes)-countDropped(r)), fmt.Sprint(countDropped(r)),
			fmt.Sprint(r.RunsAborted), fmt.Sprint(r.Remaps))
	}
	sweep.AddNote("faults are permanent fail-stops at 25%%/50%% of the arrival span (GPUs 1 and 5)")
	sweep.AddNote("'stalled' = event-driven policy deadlocked: its fixed group no longer exists among surviving GPUs")

	// Ablation: the recovery mechanism is the requeue. Without it, every
	// in-flight victim of a fault is dropped on the floor.
	type abCell struct {
		faults    int
		noRequeue bool
	}
	abCells := []abCell{{1, false}, {1, true}, {2, false}, {2, true}}
	abResults := mapCells(ctx, len(abCells), func(i int) out {
		c := abCells[i]
		r, err := sim.Run(faultCellConfig(ctx, f, newTetri(f), reqs, failureFaults(ctx, c.faults), c.noRequeue))
		return out{r, err}
	})
	ablation := tablefmt.New("Failure ablation: TetriServe with and without fault requeue",
		"Recovery", "faults", "SAR", "completed", "dropped", "aborted runs")
	for i, c := range abCells {
		o := abResults[i]
		name := "requeue"
		if c.noRequeue {
			name = "no-requeue"
		}
		if o.err != nil {
			ablation.AddRow(name, fmt.Sprint(c.faults), "stalled", "-", "-", "-")
			continue
		}
		r := o.res
		// Three decimals: the requeue margin is a handful of requests, which
		// two-decimal rounding can hide.
		ablation.AddRow(name, fmt.Sprint(c.faults),
			fmt.Sprintf("%.3f", metrics.SAR(r)),
			fmt.Sprint(len(r.Outcomes)-countDropped(r)), fmt.Sprint(countDropped(r)),
			fmt.Sprint(r.RunsAborted))
	}
	ablation.AddNote("requeue credits completed steps and re-packs survivors next round; no-requeue drops every victim")
	return []*tablefmt.Table{sweep, ablation}
}
