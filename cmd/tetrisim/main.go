// Command tetrisim runs the paper's experiments against the simulated
// cluster and prints the reproduced tables.
//
// Usage:
//
//	tetrisim list                 # show available experiments
//	tetrisim run fig7 table5 ...  # run specific experiments
//	tetrisim run all              # run everything (Table 6 takes minutes)
//	tetrisim profile              # dump the offline-profiled cost tables
//	tetrisim timeline [sched]     # serve a trace and draw the GPU timeline
//	tetrisim export [sched]       # serve a trace, emit a JSONL event log
//
// Flags:
//
//	-seed N        trace seed (default 1)
//	-n N           requests per simulation (default 300)
//	-rate R        arrival rate req/min (default 12)
//	-quick         reduced sizes/timeouts (what the golden-table tests use)
//	-workers N     simulation cells run concurrently (default GOMAXPROCS; 1 = sequential)
//	-markdown      emit GitHub-flavored markdown tables
//	-metrics       attach the telemetry plane (timeline/export) and dump
//	               Prometheus text to stderr at exit
//	-fail-gpus S   comma-separated GPU ids to fail-stop (timeline/export)
//	-fail-at D     virtual time of the fail-stop (default 30s)
//	-recover-at D  virtual time the GPUs return (0 = never)
//	-cache-interval N  max step-cache cadence the planner may assign
//	               (timeline/export, tetriserve scheduler; 1 = caching off)
//	-quality-budget F  fraction of each request's steps the planner may
//	               approximate via the step cache (timeline/export; 0..1)
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"tetriserve/internal/core"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/experiments"
	"tetriserve/internal/gantt"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/sim"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/tablefmt"
	"tetriserve/internal/telemetry"
	"tetriserve/internal/trace"
	"tetriserve/internal/workload"
)

func main() {
	seed := flag.Uint64("seed", 1, "trace generation seed")
	n := flag.Int("n", 0, "requests per simulation (0 = default)")
	rate := flag.Float64("rate", 0, "arrival rate in req/min (0 = default)")
	quick := flag.Bool("quick", false, "reduced sizes and timeouts")
	workers := flag.Int("workers", 0, "concurrent simulation cells (0 = GOMAXPROCS, 1 = sequential)")
	markdown := flag.Bool("markdown", false, "emit markdown tables")
	failGPUs := flag.String("fail-gpus", "", "comma-separated GPU ids to fail-stop during timeline/export runs")
	failAt := flag.Duration("fail-at", 30*time.Second, "virtual time at which -fail-gpus fail")
	recoverAt := flag.Duration("recover-at", 0, "virtual time at which failed GPUs recover (0 = never)")
	metricsDump := flag.Bool("metrics", false, "attach the telemetry plane during timeline/export and dump /metrics text to stderr at exit")
	cacheInterval := flag.Int("cache-interval", 1, "max step-cache interval the planner may assign (timeline/export; 1 = caching off, max 8)")
	qualityBudget := flag.Float64("quality-budget", 0, "fraction of each request's steps the planner may approximate via the step cache (timeline/export; 0..1)")
	flag.Parse()

	faults, err := simgpu.ParseFaults(*failGPUs, *failAt, *recoverAt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tetrisim:", err)
		os.Exit(2)
	}
	knobs, err := parseCacheKnobs(*cacheInterval, *qualityBudget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tetrisim:", err)
		os.Exit(2)
	}

	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}

	ctx := experiments.Context{
		Seed:        *seed,
		NumRequests: *n,
		Rate:        *rate,
		Quick:       *quick,
		Workers:     *workers,
	}

	switch args[0] {
	case "list":
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n         %s\n", e.ID, e.Title, e.Summary)
		}
	case "profile":
		dumpProfiles()
	case "timeline", "export":
		schedName := "tetriserve"
		if len(args) > 1 {
			schedName = args[1]
		}
		if err := runTimelineOrExport(args[0], schedName, ctx, faults, *metricsDump, knobs); err != nil {
			fmt.Fprintln(os.Stderr, "tetrisim:", err)
			os.Exit(1)
		}
	case "run":
		ids := args[1:]
		if len(ids) == 0 {
			fmt.Fprintln(os.Stderr, "tetrisim: run requires experiment ids or 'all'")
			os.Exit(2)
		}
		if len(ids) == 1 && ids[0] == "all" {
			ids = nil
			for _, e := range experiments.All() {
				ids = append(ids, e.ID)
			}
		}
		for _, id := range ids {
			e, err := experiments.ByID(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tetrisim:", err)
				os.Exit(1)
			}
			start := time.Now()
			tables := e.Run(ctx)
			fmt.Printf("## %s\n\n", e.Title)
			for _, t := range tables {
				printTable(t, *markdown)
				fmt.Println()
			}
			fmt.Printf("(%s in %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	default:
		usage()
		os.Exit(2)
	}
}

func printTable(t *tablefmt.Table, markdown bool) {
	if markdown {
		fmt.Print(t.Markdown())
	} else {
		fmt.Print(t.String())
	}
}

func dumpProfiles() {
	for _, pair := range []struct {
		mdl  *model.Model
		topo *simgpu.Topology
	}{
		{model.FLUX(), simgpu.H100x8()},
		{model.SD3(), simgpu.A40x4()},
	} {
		est := costmodel.NewEstimator(pair.mdl, pair.topo)
		prof := costmodel.BuildProfile(est, costmodel.ProfilerConfig{})
		t := tablefmt.New(
			fmt.Sprintf("Offline profile: %s on %s (per-step ms, batch 1)", pair.mdl.Name, pair.topo.Name),
			"Resolution", "SP degree", "step (ms)", "GPU-s/step", "CV")
		for _, res := range prof.Resolutions() {
			for _, k := range prof.Degrees() {
				e, _ := prof.Lookup(res, k, 1)
				t.AddRow(res.String(), fmt.Sprint(k),
					fmt.Sprintf("%.2f", float64(e.Mean.Microseconds())/1000),
					fmt.Sprintf("%.4f", prof.GPUSeconds(res, k)),
					fmt.Sprintf("%.2f%%", 100*e.CV))
			}
		}
		fmt.Println(t.String())
	}
}

// runTimelineOrExport serves a short mixed trace with the named scheduler
// and either renders the GPU-occupancy chart (the CLI counterpart of
// Figure 1) or emits the structured JSONL event log. Injected faults let
// the recovery rescheduling be watched on the timeline.
func runTimelineOrExport(mode, schedName string, ctx experiments.Context, faults []simgpu.Fault, metricsDump bool, knobs cacheKnobs) error {
	mdl := model.FLUX()
	topo := simgpu.H100x8()
	prof := costmodel.BuildProfile(costmodel.NewEstimator(mdl, topo), costmodel.ProfilerConfig{})
	var sc sched.Scheduler
	switch schedName {
	case "tetriserve":
		cfg := core.DefaultConfig()
		cfg.MaxCacheInterval = knobs.interval
		sc = core.NewScheduler(prof, topo, cfg)
	case "sp1", "sp2", "sp4", "sp8":
		k, _ := strconv.Atoi(strings.TrimPrefix(schedName, "sp"))
		sc = sched.NewFixedSP(k)
	case "rssp":
		sc = sched.NewRSSP(topo.N)
	case "edf":
		sc = sched.NewEDF()
	default:
		return fmt.Errorf("unknown scheduler %q (tetriserve|sp1|sp2|sp4|sp8|rssp|edf)", schedName)
	}
	n := ctx.NumRequests
	if n <= 0 || n > 60 {
		n = 24
	}
	rate := ctx.Rate
	if rate <= 0 {
		rate = 12
	}
	seed := ctx.Seed
	if seed == 0 {
		seed = 1
	}
	reqs := workload.Generate(workload.GeneratorConfig{
		Model:       mdl,
		Arrivals:    workload.PoissonArrivals{PerMinute: rate},
		SLO:         workload.NewSLOPolicy(1.2),
		NumRequests: n,
		Seed:        seed,
	})
	if knobs.budgetFrac > 0 {
		for _, r := range reqs {
			r.QualityBudget = int(knobs.budgetFrac * float64(r.Steps))
		}
	}
	simCfg := sim.Config{
		Model: mdl, Topo: topo, Scheduler: sc, Requests: reqs, Profile: prof,
		Faults: faults,
	}
	if len(faults) > 0 {
		// Without timeout semantics a fault that strands requests on a
		// shrunken cluster would deadlock the event loop.
		simCfg.DropLateFactor = 4.0
	}
	var plane *telemetry.Plane
	if metricsDump {
		plane = telemetry.NewPlane()
		plane.SetClusterSize(topo.N)
		simCfg.Hooks = plane.Hooks()
	}
	res, err := sim.Run(simCfg)
	if err != nil {
		return err
	}
	if plane != nil {
		plane.BindGPUBusy(func() float64 { return res.GPUBusySeconds })
		if err := plane.Registry.WriteProm(os.Stderr); err != nil {
			return err
		}
	}
	if mode == "export" {
		return trace.Write(os.Stdout, trace.FromResult(res))
	}
	fmt.Printf("%s over %d requests (SAR %.2f):\n\n", sc.Name(), n, simSAR(res))
	fmt.Print(gantt.Render(res, gantt.Config{Width: 100}))
	return nil
}

func simSAR(res *sim.Result) float64 {
	met := 0
	for _, o := range res.Outcomes {
		if o.Met {
			met++
		}
	}
	if len(res.Outcomes) == 0 {
		return 0
	}
	return float64(met) / float64(len(res.Outcomes))
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  tetrisim list
  tetrisim [-seed N] [-n N] [-rate R] [-quick] [-markdown] run <id>... | run all
  tetrisim profile
  tetrisim [-seed N] [-n N] [-rate R] [-metrics] [-cache-interval N] [-quality-budget F] [-fail-gpus 1,3 [-fail-at 30s] [-recover-at 90s]] timeline [tetriserve|sp1|sp2|sp4|sp8|rssp|edf]`)
}
