// Package experiments reproduces every table and figure of the paper's
// evaluation (§2 motivation, §6 evaluation, Appendix B). Each experiment is
// a named runner producing tablefmt tables; the golden-table tests and
// cmd/tetrisim both execute through this registry so numbers are produced
// by exactly one code path.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"tetriserve/internal/core"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/sim"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/tablefmt"
	"tetriserve/internal/workload"
)

// Context carries run-wide knobs.
type Context struct {
	// Seed drives trace generation.
	Seed uint64
	// NumRequests per simulation (default 300, matching §6.1).
	NumRequests int
	// Rate is the default arrival rate in requests/minute (default 12).
	Rate float64
	// Quick trims expensive cells (shorter exhaustive-search timeout,
	// fewer requests) for use inside `go test` (the golden tables).
	Quick bool
	// ExhaustiveTimeout bounds each Appendix-B solver cell (default 60 s,
	// 2 s when Quick).
	ExhaustiveTimeout time.Duration
	// Workers bounds how many independent simulation cells run
	// concurrently (default runtime.GOMAXPROCS(0)). Workers=1 reproduces
	// the fully sequential behavior bit-for-bit; any value produces
	// identical tables because results are assembled in cell order.
	// Timing-sensitive experiments (e.g. the Appendix-B solver wall-clock
	// comparison) always run sequentially regardless of this knob.
	Workers int
}

func (c Context) withDefaults() Context {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.NumRequests <= 0 {
		if c.Quick {
			c.NumRequests = 150
		} else {
			c.NumRequests = 300
		}
	}
	if c.Rate <= 0 {
		c.Rate = 12
	}
	if c.ExhaustiveTimeout <= 0 {
		if c.Quick {
			c.ExhaustiveTimeout = 2 * time.Second
		} else {
			c.ExhaustiveTimeout = 60 * time.Second
		}
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	// ID is the registry key ("fig7", "table5", …).
	ID string
	// Title is the paper artifact name.
	Title string
	// Summary states what the artifact shows.
	Summary string
	// Run produces the tables.
	Run func(Context) []*tablefmt.Table
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every registered experiment sorted by ID in presentation
// order (tables and figures follow the paper's numbering).
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool { return orderKey(out[i].ID) < orderKey(out[j].ID) })
	return out
}

// orderKey sorts figN/tableN in paper order.
func orderKey(id string) string {
	var kind string
	var n int
	if _, err := fmt.Sscanf(id, "fig%d", &n); err == nil {
		kind = "f"
	} else if _, err := fmt.Sscanf(id, "table%d", &n); err == nil {
		kind = "t"
	} else {
		return "z" + id
	}
	return fmt.Sprintf("%s%03d", kind, n)
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (try `list`)", id)
}

// ---- shared fixtures ----

type fixture struct {
	mdl  *model.Model
	topo *simgpu.Topology
	prof *costmodel.Profile
	est  *costmodel.Estimator
}

var (
	fixOnce  sync.Once
	fixtures map[string]*fixture
)

func fix(name string) *fixture {
	fixOnce.Do(func() {
		fixtures = map[string]*fixture{}
		for _, pair := range []struct {
			key  string
			mdl  *model.Model
			topo *simgpu.Topology
		}{
			{"flux-h100", model.FLUX(), simgpu.H100x8()},
			{"sd3-a40", model.SD3(), simgpu.A40x4()},
		} {
			est := costmodel.NewEstimator(pair.mdl, pair.topo)
			fixtures[pair.key] = &fixture{
				mdl:  pair.mdl,
				topo: pair.topo,
				prof: costmodel.BuildProfile(est, costmodel.ProfilerConfig{}),
				est:  est,
			}
		}
	})
	f, ok := fixtures[name]
	if !ok {
		panic("experiments: unknown fixture " + name)
	}
	return f
}

// trace builds a request trace for the fixture.
func trace(ctx Context, f *fixture, mix workload.Mix, arrivals workload.ArrivalProcess, scale float64) []*workload.Request {
	if arrivals == nil {
		arrivals = workload.PoissonArrivals{PerMinute: ctx.Rate}
	}
	return workload.Generate(workload.GeneratorConfig{
		Model:       f.mdl,
		Mix:         mix,
		Arrivals:    arrivals,
		SLO:         workload.NewSLOPolicy(scale),
		NumRequests: ctx.NumRequests,
		Seed:        ctx.Seed,
	})
}

// schedulerSet returns the paper's comparison set: TetriServe, the fixed
// xDiT variants for every degree the node supports, and RSSP.
func schedulerSet(f *fixture) []sched.Scheduler {
	out := []sched.Scheduler{core.NewScheduler(f.prof, f.topo, core.DefaultConfig())}
	for _, k := range f.topo.Degrees() {
		out = append(out, sched.NewFixedSP(k))
	}
	out = append(out, sched.NewRSSP(f.topo.N))
	return out
}

// runOne executes a single simulation, panicking on configuration errors
// (experiments are static; a failure is a bug, not an input problem).
// Quick-mode cells run with the invariant oracle attached, so every table
// the test suite regenerates doubles as a full invariant audit.
func runOne(ctx Context, f *fixture, sc sched.Scheduler, reqs []*workload.Request, opts ...func(*sim.Config)) *sim.Result {
	cfg := sim.Config{
		Model:     f.mdl,
		Topo:      f.topo,
		Scheduler: sc,
		Requests:  cloneRequests(reqs),
		Profile:   f.prof,
		// Requests that blow through 4x their SLO are timed out and
		// dropped, matching the paper's serving semantics (Figure 9);
		// SAR counts them as misses either way.
		DropLateFactor:  4.0,
		CheckInvariants: ctx.Quick,
	}
	for _, o := range opts {
		o(&cfg)
	}
	res, err := sim.Run(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: simulation failed for %s: %v", sc.Name(), err))
	}
	return res
}

// cloneRequests deep-copies a trace so schedulers cannot observe each
// other's mutations (the cache trimmer mutates SkippedSteps).
func cloneRequests(reqs []*workload.Request) []*workload.Request {
	out := make([]*workload.Request, len(reqs))
	for i, r := range reqs {
		c := *r
		out[i] = &c
	}
	return out
}

// fm formats a float at two decimals.
func fm(x float64) string { return fmt.Sprintf("%.2f", x) }

// newFixed returns a fresh xDiT fixed-SP baseline.
func newFixed(k int) sched.Scheduler { return sched.NewFixedSP(k) }

// newTetri returns a fresh TetriServe scheduler with default config.
func newTetri(f *fixture) sched.Scheduler {
	return core.NewScheduler(f.prof, f.topo, core.DefaultConfig())
}

// newRSSP returns a fresh RSSP baseline clamped to the node size.
func newRSSP(f *fixture) sched.Scheduler { return sched.NewRSSP(f.topo.N) }
