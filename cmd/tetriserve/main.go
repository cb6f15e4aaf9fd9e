// Command tetriserve is the online serving daemon: it exposes the HTTP API
// over the simulated GPU cluster, running TetriServe's round-based
// scheduler (or a baseline, for comparison) in real time with a
// configurable speed-up.
//
//	tetriserve -addr :8900 -model flux -topo h100 -speedup 20
//	tetriserve -scheduler sp4          # serve with a fixed xDiT baseline
//	tetriserve -cache                  # enable Nirvana-style caching
//
// In -mode router the daemon serves no GPUs itself: it fronts a static list
// of shard daemons with deadline-aware admission and routing:
//
//	tetriserve -mode shard -addr :8901 &
//	tetriserve -mode shard -addr :8902 &
//	tetriserve -mode router -addr :8900 -shards http://localhost:8901,http://localhost:8902
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tetriserve/internal/cache"
	"tetriserve/internal/core"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/model"
	"tetriserve/internal/router"
	"tetriserve/internal/sched"
	"tetriserve/internal/server"
	"tetriserve/internal/simgpu"
)

func main() {
	addr := flag.String("addr", ":8900", "listen address")
	mode := flag.String("mode", "shard", "mode: shard (serve GPUs) | router (front shard daemons)")
	mdlName := flag.String("model", "flux", "model: flux | sd3")
	topoName := flag.String("topo", "h100", "topology: h100 | a40")
	speedup := flag.Float64("speedup", 20, "simulated seconds per wall second")
	schedName := flag.String("scheduler", "tetriserve", "tetriserve | sp1 | sp2 | sp4 | sp8 | rssp | edf")
	granularity := flag.Int("granularity", 5, "TetriServe step granularity per round")
	useCache := flag.Bool("cache", false, "enable Nirvana-style approximate latent cache")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	cacheInterval := flag.Int("cache-interval", 1, "shard mode: max step-cache interval the planner may assign (1 = caching off, max 8)")
	qualityBudget := flag.Float64("quality-budget", 0, "shard mode: fraction of each job's steps the planner may approximate via the step cache (0..1)")
	shardList := flag.String("shards", "", "router mode: comma-separated shard base URLs (name=url or url)")
	tenantWeights := flag.String("tenant-weights", "", "router mode: comma-separated tenant=weight pairs")
	rebalanceOn := flag.Bool("rebalance", false, "router mode: enable elastic GPU rebalancing across shards")
	rebalanceGPUs := flag.String("rebalance-gpus", "", "router mode: per-shard init:max GPU counts, e.g. 2:8,2:8 (required with -rebalance)")
	rebalanceEvery := flag.Duration("rebalance-interval", 10*time.Second, "router mode: elastic decision cadence")
	flag.Parse()

	switch *mode {
	case "shard":
		knobs, err := parseCacheKnobs(*cacheInterval, *qualityBudget)
		if err != nil {
			log.Fatal(err)
		}
		if err := checkShardFlags(*granularity, *speedup); err != nil {
			log.Fatal(err)
		}
		runShard(*addr, *mdlName, *topoName, *speedup, *schedName, *granularity, *useCache, *pprofOn, knobs)
	case "router":
		runRouter(routerOptions{
			addr:           *addr,
			shardList:      *shardList,
			tenantWeights:  *tenantWeights,
			rebalance:      *rebalanceOn,
			rebalanceGPUs:  *rebalanceGPUs,
			rebalanceEvery: *rebalanceEvery,
		})
	default:
		log.Fatalf("tetriserve: unknown -mode %q (want shard or router)", *mode)
	}
}

func runShard(addr, mdlName, topoName string, speedup float64, schedName string, granularity int, useCache, pprofOn bool, knobs cacheKnobs) {
	mdl, err := model.ByName(mdlName)
	if err != nil {
		log.Fatal(err)
	}
	topo, err := simgpu.ByName(topoName)
	if err != nil {
		log.Fatal(err)
	}
	sc, err := buildScheduler(schedName, granularity, knobs.interval, mdl, topo)
	if err != nil {
		log.Fatal(err)
	}

	cfg := server.DriverConfig{
		Model: mdl, Topo: topo, Scheduler: sc, Speedup: speedup,
		QualityBudgetFrac: knobs.budgetFrac,
	}
	if useCache {
		cfg.Cache = cache.New(cache.DefaultConfig())
	}
	driver, err := server.NewDriver(cfg)
	if err != nil {
		log.Fatal(err)
	}
	driver.Start()
	defer driver.Stop()

	api := server.NewAPI(driver)
	api.Pprof = pprofOn
	log.Printf("tetriserve: %s on %s, scheduler=%s, speedup=%.0fx, listening on %s",
		mdl.Name, topo.Name, sc.Name(), speedup, addr)
	serve(addr, api.Handler())
}

// routerOptions carries the parsed -mode router flags.
type routerOptions struct {
	addr           string
	shardList      string
	tenantWeights  string
	rebalance      bool
	rebalanceGPUs  string
	rebalanceEvery time.Duration
}

func runRouter(opt routerOptions) {
	shards, err := parseShards(opt.shardList)
	if err != nil {
		log.Fatal(err)
	}
	weights, err := parseWeights(opt.tenantWeights)
	if err != nil {
		log.Fatal(err)
	}
	api, err := server.NewRouterAPI(router.Config{
		TenantWeights: weights,
	}, shards)
	if err != nil {
		log.Fatal(err)
	}
	// Stops the shards' digest streams once serve returns on shutdown.
	defer api.Close()
	if opt.rebalance {
		init, max, err := parseRebalanceGPUs(opt.rebalanceGPUs, len(shards))
		if err != nil {
			log.Fatal(err)
		}
		resizable := make([]server.ResizableShard, len(shards))
		for i, s := range shards {
			rs, ok := s.(server.ResizableShard)
			if !ok {
				log.Fatalf("tetriserve: shard %s does not support resizing", s.Name())
			}
			resizable[i] = rs
		}
		reb, err := server.NewLiveRebalancer(server.LiveRebalancerConfig{
			Shards:      resizable,
			InitialGPUs: init,
			MaxGPUs:     max,
			Interval:    opt.rebalanceEvery,
			Logf:        log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		reb.Start()
		defer reb.Stop()
		api.AttachRebalancer(reb)
		log.Printf("tetriserve: elastic rebalancing every %s", opt.rebalanceEvery)
	}
	names := make([]string, len(shards))
	for i, s := range shards {
		names[i] = s.Name()
	}
	log.Printf("tetriserve: router over %d shards (%s), listening on %s",
		len(shards), strings.Join(names, ", "), opt.addr)
	serve(opt.addr, api.Handler())
}

func serve(addr string, h http.Handler) {
	srv := &http.Server{Addr: addr, Handler: h}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		_ = srv.Close()
	}()
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
}

// Flag-parse error kinds, distinguishable with errors.Is so tests (and any
// future config loader) can assert on the cause rather than message text.
var (
	ErrNoShards        = errors.New("no shards configured")
	ErrDuplicateShard  = errors.New("duplicate shard name")
	ErrEmptyShardURL   = errors.New("empty shard URL")
	ErrMalformedPair   = errors.New("malformed pair")
	ErrBadWeight       = errors.New("weight must be a positive number")
	ErrDuplicateTenant = errors.New("duplicate tenant")
	ErrBadGPUCount     = errors.New("invalid GPU count")
	ErrShardCount      = errors.New("wrong number of shard entries")
)

// parseShards resolves the -shards flag: "url" or "name=url", comma-separated.
// Duplicate shard names (explicit or URL-defaulted) are rejected: the router
// keys stats and routing decisions by name, so two shards sharing one would
// silently merge in every ledger.
func parseShards(list string) ([]server.RouterShard, error) {
	var shards []server.RouterShard
	seen := map[string]bool{}
	for _, item := range strings.Split(list, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, url := "", item
		if k := strings.Index(item, "="); k >= 0 && !strings.Contains(item[:k], "/") {
			name, url = item[:k], item[k+1:]
		}
		if strings.TrimSpace(url) == "" {
			return nil, fmt.Errorf("tetriserve: -shards entry %q: %w", item, ErrEmptyShardURL)
		}
		s := server.NewRemoteShard(name, url)
		if seen[s.Name()] {
			return nil, fmt.Errorf("tetriserve: -shards: %w: %q", ErrDuplicateShard, s.Name())
		}
		seen[s.Name()] = true
		shards = append(shards, s)
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("tetriserve: -mode router needs -shards url[,url...]: %w", ErrNoShards)
	}
	return shards, nil
}

// parseWeights resolves the -tenant-weights flag: "tenant=weight" pairs.
// Malformed pairs, empty tenant names, non-positive or non-numeric weights,
// and duplicate tenants are all rejected — a silently-last-wins duplicate
// would make fair shares depend on flag order.
func parseWeights(list string) (map[string]float64, error) {
	if strings.TrimSpace(list) == "" {
		return nil, nil
	}
	weights := map[string]float64{}
	for _, item := range strings.Split(list, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		k := strings.Index(item, "=")
		if k < 0 {
			return nil, fmt.Errorf("tetriserve: -tenant-weights entry %q (want tenant=weight): %w", item, ErrMalformedPair)
		}
		tenant := strings.TrimSpace(item[:k])
		if tenant == "" {
			return nil, fmt.Errorf("tetriserve: -tenant-weights entry %q: %w", item, ErrMalformedPair)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(item[k+1:]), 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("tetriserve: -tenant-weights entry %q: %w", item, ErrBadWeight)
		}
		if _, ok := weights[tenant]; ok {
			return nil, fmt.Errorf("tetriserve: -tenant-weights: %w: %q", ErrDuplicateTenant, tenant)
		}
		weights[tenant] = w
	}
	if len(weights) == 0 {
		return nil, fmt.Errorf("tetriserve: -tenant-weights %q holds no pairs: %w", list, ErrMalformedPair)
	}
	return weights, nil
}

// parseRebalanceGPUs resolves the -rebalance-gpus flag: per-shard "init:max"
// GPU counts, parallel to -shards.
func parseRebalanceGPUs(list string, nShards int) (init, max []int, err error) {
	items := []string{}
	for _, item := range strings.Split(list, ",") {
		if item = strings.TrimSpace(item); item != "" {
			items = append(items, item)
		}
	}
	if len(items) != nShards {
		return nil, nil, fmt.Errorf("tetriserve: -rebalance-gpus has %d entries for %d shards: %w",
			len(items), nShards, ErrShardCount)
	}
	for _, item := range items {
		k := strings.Index(item, ":")
		if k < 0 {
			return nil, nil, fmt.Errorf("tetriserve: -rebalance-gpus entry %q (want init:max): %w", item, ErrMalformedPair)
		}
		i, err1 := strconv.Atoi(strings.TrimSpace(item[:k]))
		m, err2 := strconv.Atoi(strings.TrimSpace(item[k+1:]))
		if err1 != nil || err2 != nil || i < 0 || m <= 0 || i > m {
			return nil, nil, fmt.Errorf("tetriserve: -rebalance-gpus entry %q: %w", item, ErrBadGPUCount)
		}
		init = append(init, i)
		max = append(max, m)
	}
	return init, max, nil
}

// buildScheduler resolves the -scheduler flag.
func buildScheduler(name string, granularity, cacheInterval int, mdl *model.Model, topo *simgpu.Topology) (sched.Scheduler, error) {
	switch {
	case name == "tetriserve":
		prof := costmodel.BuildProfile(costmodel.NewEstimator(mdl, topo), costmodel.ProfilerConfig{})
		cfg := core.DefaultConfig()
		cfg.StepGranularity = granularity
		cfg.MaxCacheInterval = cacheInterval
		return core.NewScheduler(prof, topo, cfg), nil
	case strings.HasPrefix(name, "sp"):
		k, err := strconv.Atoi(strings.TrimPrefix(name, "sp"))
		if err != nil || k <= 0 || k > topo.N {
			return nil, fmt.Errorf("tetriserve: invalid fixed degree %q for %d GPUs", name, topo.N)
		}
		return sched.NewFixedSP(k), nil
	case name == "rssp":
		return sched.NewRSSP(topo.N), nil
	case name == "edf":
		return sched.NewEDF(), nil
	}
	return nil, fmt.Errorf("tetriserve: unknown scheduler %q", name)
}
