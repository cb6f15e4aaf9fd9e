// Command bench is the repository's end-to-end benchmark: four workloads
// over the virtual-clock simulator and over a live router-plus-shards fleet
// on loopback HTTP, priced end to end and layer by layer. See README.md.
//
//	bash bench/run.sh                                  # all workloads, untraced
//	bash bench/run.sh -trace 1                         # all workloads, per-layer numbers
//	bash bench/run.sh -workload live-fleet -seed 7 -seconds 20 -trace 0
//	bash bench/run.sh -runs 10 -out a.jsonl            # ten seeds per workload
//	bash bench/run.sh -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// params are the workload sizes: frozen for the benchmark, shrunk by the
// tests. Everything else about a workload is a constant in its set-up.
type params struct {
	BacklogRequests int     // sim-backlog trace length
	FleetRequests   int     // sim-fleet trace length
	LiveRate        float64 // live submissions per wall second
	ReadRate        float64 // live-fleet-observed reads per wall second
}

const (
	// speedup is the live shards' clock rate: shard-clock seconds per wall
	// second, the one daemon default the live workloads change.
	speedup = 200
	// setupReps is how often a run sets up; setup_s is the median.
	setupReps = 15
)

// frozen sizes. LiveRate was tuned once so that early rejects land between
// 5 % and 20 % of submissions (12–16 % at 90/s), then fixed.
var frozen = params{
	BacklogRequests: 4000,
	FleetRequests:   60000,
	LiveRate:        90,
	ReadRate:        50,
}

// env is one run's inputs.
type env struct {
	params
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	outDir   string // span files go here
}

func (e env) spanFile() string {
	return filepath.Join(e.outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", e.workload, e.seed))
}

// workloads maps each name to its runner, in reporting order.
var workloads = []struct {
	name string
	run  func(env) *result
}{
	{"sim-backlog", func(e env) *result { return runSim(e, setupBacklog) }},
	{"sim-fleet", func(e env) *result { return runSim(e, setupFleet) }},
	{"live-fleet", func(e env) *result { return runLive(e, false) }},
	{"live-fleet-observed", func(e env) *result { return runLive(e, true) }},
}

// record is one line of the results file: the run's result plus what is
// needed to compare it with another run.
type record struct {
	Workload   string  `json:"workload"`
	Trace      int     `json:"trace"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	*result
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, undecorated; 1: per-layer metrics from the decorated run")
	runs := fs.Int("runs", 1, "runs per workload, on seeds seed, seed+1, ...")
	out := fs.String("out", "bench/out/results.jsonl", "results file; one JSON line is appended per run")
	compare := fs.Bool("compare", false, "compare two results files: -compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two results files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 || *runs < 1 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "bench: -trace is 0 or 1, -seconds and -runs are positive, and there are no other arguments")
		return 2
	}

	var selected []int
	for i, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, i)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}

	// More than one run: each gets a process of its own, so that peak RSS
	// and heap state do not leak from one run into the next.
	if len(selected) > 1 || *runs > 1 {
		self, err := os.Executable()
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		code := 0
		for _, i := range selected {
			for n := 0; n < *runs; n++ {
				cmd := exec.Command(self, "-workload", workloads[i].name, "-seed", strconv.FormatUint(*seed+uint64(n), 10),
					"-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "-trace", strconv.Itoa(*trace), "-out", *out)
				cmd.Stdout, cmd.Stderr = stdout, stderr
				if err := cmd.Run(); err != nil {
					fmt.Fprintf(stderr, "bench: %s: %v\n", workloads[i].name, err)
					code = 1
				}
			}
		}
		return code
	}

	w := workloads[selected[0]]
	e := env{
		params:   frozen,
		workload: w.name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		outDir:   filepath.Dir(*out),
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	res := w.run(e)
	rec := record{
		Workload: w.name, Trace: *trace, Seed: *seed, Seconds: *seconds,
		Commit: commit(), GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		result: res,
	}
	fmt.Fprintf(stdout, "== %s seed=%d seconds=%g trace=%d commit=%s %s nproc=%d GOMAXPROCS=%d\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Commit, rec.GoVersion, rec.NProc, rec.GOMAXPROCS)
	res.print(stdout)
	last, err := json.Marshal(res)
	if err == nil {
		err = appendRecord(*out, rec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", last)
	if !res.Correct {
		return 1
	}
	return 0
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// commit names the checkout's commit, or "unknown" outside a git repository.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
