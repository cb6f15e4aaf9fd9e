package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"tetriserve/internal/core"
	"tetriserve/internal/model"
	"tetriserve/internal/router"
	"tetriserve/internal/server"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/stats"
	"tetriserve/internal/workload"
)

// fleet is a router and its shards booted in this process on loopback
// listeners, wired exactly as the daemon wires them: NewDriver → NewAPI →
// NewRemoteShard → NewRouterAPI, daemon defaults except Speedup.
type fleet struct {
	drivers   []*server.Driver
	scheds    []*core.Scheduler
	remotes   []*server.RemoteShard
	api       *server.RouterAPI
	routerURL string
	shardURLs []string
	tau       time.Duration

	servers []*http.Server
	serving sync.WaitGroup
}

func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed once stop closes the server
	}()
	return "http://" + ln.Addr().String(), nil
}

// bootFleet starts fleetShards 2-GPU shards and a router over them. With a
// tracer, every layer boundary is decorated and the invariant oracle is on.
func bootFleet(e env, tr *tracer) (*fleet, time.Duration, error) {
	mdl := model.FLUX()
	f := &fleet{}
	var profiling time.Duration
	shards := make([]server.RouterShard, fleetShards)
	for i := 0; i < fleetShards; i++ {
		t0 := time.Now()
		topo := simgpu.H100xN(2)
		prof := buildProfile(mdl, topo)
		profiling += time.Since(t0)
		sc := core.NewScheduler(prof, topo, core.DefaultConfig())
		f.scheds = append(f.scheds, sc)
		f.tau = sc.RoundDuration()
		cfg := server.DriverConfig{
			Model: mdl, Topo: topo, Scheduler: sc,
			Speedup:   speedup,
			ShardName: fmt.Sprintf("shard%d", i),
		}
		if tr != nil {
			cfg.Scheduler = &tracedScheduler{Scheduler: sc, tr: tr, parent: func() int { return 0 }}
			cfg.CheckInvariants = true
		}
		d, err := server.NewDriver(cfg)
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		d.Start()
		f.drivers = append(f.drivers, d)
		h := server.NewAPI(d).Handler()
		if tr != nil {
			h = tracedHandler(tr, i, h)
		}
		url, err := f.serve(h)
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		f.shardURLs = append(f.shardURLs, url)
		remote := server.NewRemoteShard(cfg.ShardName, url)
		f.remotes = append(f.remotes, remote)
		shards[i] = remote
		if tr != nil {
			shards[i] = &tracedShard{inner: remote, tr: tr, index: i}
		}
	}
	api, err := server.NewRouterAPI(router.Config{}, shards)
	if err != nil {
		f.stop()
		return nil, 0, err
	}
	f.api = api
	h := api.Handler()
	if tr != nil {
		h = tracedHandler(tr, -1, h)
	}
	if f.routerURL, err = f.serve(h); err != nil {
		f.stop()
		return nil, 0, err
	}
	return f, profiling, nil
}

// stop closes the listeners, waits for the serve goroutines, and stops the
// drivers (Stop returns once each loop goroutine has exited). Stopping twice
// is harmless.
func (f *fleet) stop() {
	for _, srv := range f.servers {
		_ = srv.Close()
	}
	f.serving.Wait()
	for _, r := range f.remotes {
		r.Client.CloseIdleConnections()
	}
	for _, d := range f.drivers {
		d.Stop()
	}
}

// writeOp is one pre-computed submission of the open-loop schedule.
type writeOp struct {
	due  time.Duration // wall offset from the window's start
	body []byte
}

// liveSchedule generates the sim-fleet trace shape, LiveRate submissions per
// second of window, at the shard-clock rate that LiveRate maps to under
// Speedup, and compresses its arrival times onto the wall clock: the last
// submission is due as the window ends.
func liveSchedule(e env, window time.Duration) ([]writeOp, time.Duration) {
	t0 := time.Now()
	perMinute := e.LiveRate / speedup * 60
	reqs := generate(workload.GeneratorConfig{
		Model:       model.FLUX(),
		NumRequests: max(1, int(e.LiveRate*window.Seconds())),
		Seed:        e.seed,
		Mix:         fleetMix(),
		Arrivals:    workload.NewBurstyArrivals(perMinute),
		SLO:         workload.NewSLOPolicy(1.2),
	}, perMinute)
	took := time.Since(t0)
	ops := make([]writeOp, len(reqs))
	for i, r := range reqs {
		body, err := json.Marshal(server.RoutedGenerateRequest{
			Prompt: r.Prompt.Text, Width: r.Res.W, Height: r.Res.H, SLOMillis: r.SLO.Milliseconds(),
		})
		if err != nil {
			panic(err) // plain struct of strings and ints
		}
		ops[i] = writeOp{due: time.Duration(float64(r.Arrival) / speedup), body: body}
	}
	return ops, took
}

// admitted is one accepted submission as the router answered it.
type admitted struct {
	trace string
	shard string
	job   workload.RequestID
}

// livePass is one measured window against one freshly booted fleet.
type livePass struct {
	offered   int
	accepted  []admitted
	rejected  int
	admitMS   []float64 // due (or sent: see openLoop) → 202/429
	lateMS    []float64 // due time → actually sent
	errors    int       // transport errors
	status5xx int
	reads     readerStats
	cpu       time.Duration // first due time → drained
	out       *simOut       // results and recorders, in the sims' shape
	spans     []span
}

// readerStats is what the reader goroutine measured; the writer's goroutine
// folds it into the run once the reader has returned.
type readerStats struct {
	attempted int
	readMS    []float64 // due (or sent) → response
	scrapeMS  []float64 // the /metrics reads among them
	scrapeB   []float64
	errors    int
	status5xx int
	failures  []string
}

func newClient() *http.Client {
	return &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
}

// openLoop paces one connection's operations. An operation is timed from its
// due time when the previous answer was still outstanding then, which counts
// the wait a stall imposes on later operations; otherwise the generator was
// asleep, and waking late (about half a millisecond on an idle VM) is its own
// error, reported as lateness and kept out of the system's latency.
type openLoop struct {
	start    time.Time
	prevDone time.Time
}

// wait sleeps until the operation due at offset is due and returns the
// instant to time it from and how late it is being sent.
func (l *openLoop) wait(offset time.Duration) (from time.Time, late time.Duration) {
	due := l.start.Add(offset)
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	sent := time.Now()
	if l.prevDone.After(due) {
		return due, sent.Sub(due)
	}
	return sent, sent.Sub(due)
}

// runLivePass boots a fleet, replays the schedule open loop over one writer
// connection (and, observed, one reader connection), drains, checks the
// outputs against r, and tears the fleet down.
func runLivePass(e env, r *result, f *fleet, ops []writeOp, observed bool, tr *tracer) *livePass {
	p := &livePass{offered: len(ops)}
	client := newClient()
	defer client.CloseIdleConnections()

	var mu sync.Mutex // guards p.accepted between writer and reader
	start := time.Now()
	cpu0 := cpuTime()
	end := ops[len(ops)-1].due

	var reader sync.WaitGroup
	if observed {
		reader.Add(1)
		go func() {
			defer reader.Done()
			p.reads = runReader(e, p, f, start, end, &mu)
		}()
	}

	loop := openLoop{start: start}
	for _, op := range ops {
		from, late := loop.wait(op.due)
		resp, err := client.Post(f.routerURL+"/v1/generate", "application/json", bytes.NewReader(op.body))
		r.Attempted++
		if err != nil {
			p.errors++
			r.fail(1, "POST /v1/generate: %v", err)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		done := time.Now()
		loop.prevDone = done
		p.lateMS = append(p.lateMS, ms(late))
		p.admitMS = append(p.admitMS, ms(done.Sub(from)))
		switch {
		case err != nil:
			p.errors++
			r.fail(1, "POST /v1/generate: reading body: %v", err)
		case resp.StatusCode == http.StatusAccepted:
			var job server.RoutedJob
			if err := json.Unmarshal(body, &job); err != nil || job.TraceID == "" {
				r.fail(1, "POST /v1/generate: 202 with unusable body %q: %v", body, err)
				continue
			}
			mu.Lock()
			p.accepted = append(p.accepted, admitted{trace: job.TraceID, shard: job.Shard, job: job.ID})
			mu.Unlock()
		case resp.StatusCode == http.StatusTooManyRequests:
			p.rejected++ // a valid refusal: costs sar_offered, is not a failure
		default:
			if resp.StatusCode >= 500 {
				p.status5xx++
			}
			r.fail(1, "POST /v1/generate: HTTP %d %s", resp.StatusCode, body)
		}
	}
	reader.Wait()
	r.Attempted += p.reads.attempted
	p.errors += p.reads.errors
	p.status5xx += p.reads.status5xx
	for _, msg := range p.reads.failures {
		r.fail(1, "%s", msg)
	}

	// Drain: every admitted request must reach a terminal state.
	deadline := time.Now().Add(30 * time.Second)
	for {
		busy := 0
		for _, d := range f.drivers {
			st := d.Snapshot()
			busy += st.Queued + st.Running
		}
		if busy == 0 {
			break
		}
		if time.Now().After(deadline) {
			r.fail(busy, "%d admitted requests not terminal 30 s after the window", busy)
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	p.cpu = cpuTime() - cpu0

	p.out = checkFleet(r, f, p, client)
	if tr != nil {
		for i, d := range f.drivers {
			for _, v := range d.InvariantViolations() {
				r.fail(1, "shard%d invariant: %v", i, v)
			}
		}
	}
	f.stop()
	p.out.warm = sumWarm(f.scheds) // the loop goroutines have exited
	if tr != nil {
		p.spans = tr.spans
	}
	return p
}

// runReader issues the read side of live-fleet-observed: timeline lookups
// through the router for trace IDs admitted a moment ago, with every 50th
// read replaced by the fleet document, the router's metrics and one shard's
// metrics in rotation. Open loop on its own connection.
func runReader(e env, p *livePass, f *fleet, start time.Time, end time.Duration, mu *sync.Mutex) (st readerStats) {
	client := newClient()
	defer client.CloseIdleConnections()
	rng := stats.NewRNG(e.seed ^ 0x9e3779b97f4a7c15)
	gap := time.Duration(float64(time.Second) / e.ReadRate)
	// A trace answered 202 a moment ago may not have reached its shard's
	// loop goroutine yet; only traces at least this many admissions old are
	// read, so a 404 is a failure and never a race.
	const settle = 8
	loop := openLoop{start: start}
	for k := 0; ; k++ {
		dueAt := time.Duration(k) * gap
		if dueAt > end {
			return st
		}
		url, scrape := "", false
		if k%50 == 49 {
			switch rot := k / 50; rot % 3 {
			case 0:
				url = f.routerURL + "/v1/fleet"
			case 1:
				url, scrape = f.routerURL+"/metrics", true
			default:
				url, scrape = f.shardURLs[rot/3%len(f.shardURLs)]+"/metrics", true
			}
		} else {
			mu.Lock()
			if n := len(p.accepted) - settle; n > 0 {
				url = f.routerURL + "/v1/requests/" + p.accepted[rng.Intn(n)].trace
			}
			mu.Unlock()
			if url == "" {
				continue // nothing admitted long enough ago yet
			}
		}
		from, _ := loop.wait(dueAt)
		resp, err := client.Get(url)
		st.attempted++
		if err != nil {
			st.errors++
			st.failures = append(st.failures, fmt.Sprintf("GET %s: %v", url, err))
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		done := time.Now()
		loop.prevDone = done
		st.readMS = append(st.readMS, ms(done.Sub(from)))
		if scrape {
			st.scrapeMS = append(st.scrapeMS, ms(done.Sub(from)))
			st.scrapeB = append(st.scrapeB, float64(len(body)))
		}
		if err != nil || resp.StatusCode != http.StatusOK {
			if resp.StatusCode >= 500 {
				st.status5xx++
			}
			st.failures = append(st.failures, fmt.Sprintf("GET %s: HTTP %d (%v)", url, resp.StatusCode, err))
		}
	}
}

// checkFleet runs the output checks on a drained fleet and collects its
// results: offered = admitted + rejected, as the generator and the router
// each counted them; every admitted trace reached exactly one terminal state
// on exactly the shard the router named; every shard's /v1/stats totals
// equal its Result outcomes.
func checkFleet(r *result, f *fleet, p *livePass, client *http.Client) *simOut {
	out := &simOut{offered: p.offered, router: f.api.Router().Stats()}
	if rs := out.router; rs.Decisions != p.offered || rs.Routed != len(p.accepted) || rs.Infeasible+rs.Shed != p.rejected {
		r.fail(1, "router counted %d decisions = %d routed + %d refused; the generator offered %d = %d admitted + %d refused (+ failures)",
			rs.Decisions, rs.Routed, rs.Infeasible+rs.Shed, p.offered, len(p.accepted), p.rejected)
	}
	routed := make([]map[workload.RequestID]bool, len(f.drivers))
	names := map[string]int{}
	for i := range f.drivers {
		routed[i] = map[workload.RequestID]bool{}
		names[fmt.Sprintf("shard%d", i)] = i
	}
	for _, a := range p.accepted {
		i, ok := names[a.shard]
		if !ok || routed[i][a.job] {
			r.fail(1, "trace %s: unknown shard %q or duplicate job %d", a.trace, a.shard, a.job)
			continue
		}
		routed[i][a.job] = true
		holders := 0
		for _, d := range f.drivers {
			if tl, ok := d.Timeline(a.trace); ok {
				holders++
				if !tl.Done {
					r.fail(1, "trace %s is not terminal after the drain", a.trace)
				}
			}
		}
		if holders != 1 {
			r.fail(1, "trace %s has a timeline on %d shards", a.trace, holders)
		}
		out.traceKeys = append(out.traceKeys, a.trace)
	}
	for i, d := range f.drivers {
		res := d.Result()
		out.results = append(out.results, res)
		out.recs = append(out.recs, d.Lifecycle())
		met, dropped := 0, 0
		for _, o := range res.Outcomes {
			if !routed[i][o.ID] {
				r.fail(1, "shard%d finished job %d that the router never placed there (or finished it twice)", i, o.ID)
			}
			delete(routed[i], o.ID)
			if o.Met {
				met++
			}
			if o.Dropped {
				dropped++
			}
		}
		if n := len(routed[i]); n > 0 {
			r.fail(n, "shard%d: %d admitted jobs have no terminal state", i, n)
		}
		var st server.Stats
		if err := getJSON(client, f.shardURLs[i]+"/v1/stats", &st); err != nil {
			r.fail(1, "shard%d /v1/stats: %v", i, err)
		} else if st.Completed+st.Dropped != len(res.Outcomes) || st.MetSLO != met || st.Dropped != dropped {
			r.fail(1, "shard%d /v1/stats says %d completed, %d met, %d dropped; Result has %d outcomes, %d met, %d dropped",
				i, st.Completed, st.MetSLO, st.Dropped, len(res.Outcomes), met, dropped)
		}
	}
	return out
}

func getJSON(client *http.Client, url string, v any) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// runLive measures one live workload. An untraced run is one window; a
// traced run splits the window into an undecorated pass and a decorated one,
// and the CPU per request of the two gives the tracing overhead.
func runLive(e env, observed bool) *result {
	r := newResult(e.traced)
	window := e.seconds
	if e.traced {
		window /= 2
	}
	var f *fleet
	var ops []writeOp
	var times setupTimes
	setup := func(tr *tracer) bool {
		if f != nil {
			f.stop()
		}
		var err error
		ops, times.generate = liveSchedule(e, window)
		f, times.profile, err = bootFleet(e, tr)
		if err != nil {
			r.Attempted++
			r.fail(1, "set-up: %v", err)
			r.finish()
			return false
		}
		return true
	}
	r.set("setup_s", timeSetups(func() bool { return setup(nil) }))
	if r.Failed > 0 {
		return r
	}
	r.set("costmodel.build_profile_ms", ms(times.profile))
	r.set("workload.generate_ms", ms(times.generate))

	// A discarded twentieth of a window first, as the sims discard a
	// repetition: a process's first requests pay for page faults, heap growth
	// and connection set-up that no later request pays.
	warmOps, _ := liveSchedule(e, e.seconds/20)
	runLivePass(e, newResult(false), f, warmOps, observed, nil)
	if !setup(nil) {
		return r
	}
	base := runLivePass(e, r, f, ops, observed, nil)
	p := base
	if e.traced {
		tr := newTracer(fleetShards)
		if !setup(tr) {
			return r
		}
		p = runLivePass(e, r, f, ops, observed, tr)
	}

	cpuPerReq := func(p *livePass) float64 { return ratio(ms(p.cpu), float64(p.offered)) }
	r.setPct("call_p50_ms", p.admitMS, 50)
	r.set("cpu_ms_per_req", cpuPerReq(p))
	r.set("peak_rss_mb", peakRSSMB())

	r.setPct("router.admit_p50_ms", p.admitMS, 50)
	r.setPct("router.admit_p95_ms", p.admitMS, 95)
	r.setPct("router.admit_p99_ms", p.admitMS, 99)
	r.setPct("server.read_p50_ms", p.reads.readMS, 50)
	r.setPct("server.read_p95_ms", p.reads.readMS, 95)
	r.setPct("telemetry.scrape_p50_ms", p.reads.scrapeMS, 50)
	r.set("telemetry.scrape_bytes", stats.Mean(p.reads.scrapeB))
	r.setPct("bench.generator_late_p99_ms", p.lateMS, 99)
	r.set("server.http_5xx", float64(p.status5xx))
	r.set("server.http_errors", float64(p.errors))
	if e.traced {
		r.set("bench.tracing_overhead_pct", 100*(ratio(cpuPerReq(p), cpuPerReq(base))-1))
		agg := new(spanAgg)
		agg.fold(p.spans)
		agg.planMetrics(r, 1, ms(p.cpu))
		r.setPct("control.probe_p50_us", agg.durs[spShard+routeProbe], 50)
		r.setPct("control.probe_p99_us", agg.durs[spShard+routeProbe], 99)
		r.setPct("router.handler_self_p50_us", agg.self[spRouter+routeGenerate], 50)
		r.setPct("server.remote_probe_p50_us", agg.durs[spRemoteProbe], 50)
		r.setPct("server.remote_probe_p99_us", agg.durs[spRemoteProbe], 99)
		r.set("server.remote_probe_busy_ms", sum(agg.durs[spRemoteProbe])/1e3)
		r.setPct("server.remote_probe_wire_p50_us", agg.self[spRemoteProbe], 50)
		r.setPct("server.remote_submit_p50_us", agg.durs[spRemoteSubmit], 50)
		r.setPct("server.remote_submit_p99_us", agg.durs[spRemoteSubmit], 99)
		r.setPct("server.shard_generate_handler_p50_us", agg.durs[spShard+routeGenerate], 50)
		r.setPct("lifecycle.lookup_p50_us", agg.durs[spShard+routeTimeline], 50)
		p.out.probes = len(agg.durs[spRemoteProbe])
		if err := dumpSpans(e.spanFile(), p.spans); err != nil {
			r.fail(1, "writing spans: %v", err)
		}
	}
	reportResults(r, p.out)
	var ticks, due float64
	for _, res := range p.out.results {
		ticks += float64(res.RoundTicks)
		due += float64(res.Makespan) / float64(f.tau)
	}
	r.set("server.round_tick_share", ratio(ticks, due))
	r.set("telemetry.bus_dropped", busDropped(f))
	r.finish()
	return r
}

// busDropped sums the shards' trace-bus drop counters.
func busDropped(f *fleet) float64 {
	var n float64
	for _, d := range f.drivers {
		n += d.Telemetry().Registry.Snapshot()["tetriserve_trace_dropped_events_total"]
	}
	return n
}
