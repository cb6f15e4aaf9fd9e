package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/core"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/model"
	"tetriserve/internal/router"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

// newDigestDriver starts a 2-GPU shard driver. A Speedup far below 1 makes
// the loop quiescent for the length of a test once its arrivals are in: the
// next event is wall-clock minutes away.
func newDigestDriver(t *testing.T, speedup float64, cacheInterval int) *Driver {
	t.Helper()
	mdl := model.FLUX()
	topo := simgpu.H100xN(2)
	prof := costmodel.BuildProfile(costmodel.NewEstimator(mdl, topo), costmodel.ProfilerConfig{})
	cfg := core.DefaultConfig()
	cfg.MaxCacheInterval = cacheInterval
	d, err := NewDriver(DriverConfig{
		Model: mdl, Topo: topo, Speedup: speedup,
		Scheduler: core.NewScheduler(prof, topo, cfg),
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	t.Cleanup(d.Stop)
	return d
}

// gatedShard is a shard server whose HTTP surface a test can steer: it
// counts POST /v1/probe hits, can hold every digest-stream write, and can
// refuse new digest streams.
type gatedShard struct {
	srv    *httptest.Server
	probes atomic.Int64
	refuse atomic.Bool
	// hold is write-locked by the test to stall digest-stream writes.
	hold sync.RWMutex
}

func newGatedShard(t *testing.T, d *Driver) *gatedShard {
	t.Helper()
	return newGatedShardAt(t, d, "127.0.0.1:0")
}

// newGatedShardAt serves d on addr: a restarted shard reuses its address.
func newGatedShardAt(t *testing.T, d *Driver, addr string) *gatedShard {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	g := &gatedShard{}
	h := NewAPI(d).Handler()
	g.srv = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/probe":
			g.probes.Add(1)
		case "/v1/digest":
			if g.refuse.Load() {
				http.Error(w, "refused", http.StatusServiceUnavailable)
				return
			}
			w = &heldWriter{ResponseWriter: w, hold: &g.hold}
		}
		h.ServeHTTP(w, r)
	}))
	g.srv.Listener.Close()
	g.srv.Listener = ln
	g.srv.Start()
	return g
}

// heldWriter waits for the test's hold before each write. It implements
// only Unwrap, so the digest stream must find the Flusher through
// http.ResponseController.
type heldWriter struct {
	http.ResponseWriter
	hold *sync.RWMutex
}

func (w *heldWriter) Write(b []byte) (int, error) {
	w.hold.RLock()
	defer w.hold.RUnlock()
	return w.ResponseWriter.Write(b)
}

func (w *heldWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// waitUntil polls cond for up to five seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// digestCurrent reports whether s holds a live digest covering every job it
// submitted.
func digestCurrent(s *RemoteShard) bool {
	s.dg.mu.Lock()
	defer s.dg.mu.Unlock()
	return s.dg.live && s.dg.latest.Arrived >= s.dg.submitted
}

func following(s *RemoteShard) bool {
	s.dg.mu.Lock()
	defer s.dg.mu.Unlock()
	return s.dg.following
}

// sameProjection compares two answers taken at different instants: every
// Now-independent field exactly, the Now-relative ones to the wire's
// microsecond.
func sameProjection(a, b control.Feasibility) bool {
	near := func(x, y time.Duration) bool {
		d := (x - a.Now) - (y - b.Now)
		return d >= -time.Microsecond && d <= time.Microsecond
	}
	return a.Winnable == b.Winnable && a.Slack == b.Slack &&
		a.QueueGPUSeconds == b.QueueGPUSeconds && a.ServiceGPUSeconds == b.ServiceGPUSeconds &&
		a.Pending == b.Pending && a.Running == b.Running &&
		a.HealthyGPUs == b.HealthyGPUs && a.FreeGPUs == b.FreeGPUs &&
		a.MinStepTime == b.MinStepTime && a.MinStepDegree == b.MinStepDegree &&
		a.MaxCacheInterval == b.MaxCacheInterval && a.CachedWinnable == b.CachedWinnable &&
		near(a.Deadline, b.Deadline) && near(a.ProjectedStart, b.ProjectedStart) &&
		near(a.ProjectedFinish, b.ProjectedFinish) && near(a.CachedFinish, b.CachedFinish)
}

// TestRemoteShardDigestMatchesHTTPProbe: at a quiescent instant with work
// queued and running, the digest answer equals the shard's own HTTP probe,
// and giving it costs no HTTP call.
func TestRemoteShardDigestMatchesHTTPProbe(t *testing.T) {
	d := newDigestDriver(t, 0.001, 4)
	g := newGatedShard(t, d)
	defer g.srv.Close()
	rs := NewRemoteShard("a", g.srv.URL)
	defer rs.Close() // before g.srv.Close, which waits for the stream handler

	for i := 0; i < 5; i++ {
		if _, err := rs.Submit(workload.Prompt{Text: fmt.Sprint(i)}, model.Res1024, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rs.ProbeFeasibility(model.Res512, 0, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if n := g.probes.Load(); n != 1 {
		t.Fatalf("first probe made %d HTTP probes, want 1", n)
	}
	waitUntil(t, "a digest with every submitted job", func() bool { return digestCurrent(rs) })
	var one ShardDigest
	if err := rs.get("/v1/digest", &one); err != nil {
		t.Fatal(err)
	}
	if one.Arrived != 5 || one.Pending+one.Running != 5 || one.Speedup != 0.001 {
		t.Fatalf("GET /v1/digest = %+v, want 5 jobs arrived and counted at speedup 0.001", one)
	}

	for _, res := range model.StandardResolutions() {
		for _, slo := range []time.Duration{3 * time.Second, 20 * time.Second, 90 * time.Second} {
			got, err := rs.ProbeFeasibility(res, 0, slo)
			if err != nil {
				t.Fatal(err)
			}
			var v FeasibilityView
			if err := rs.post("/v1/probe", ProbeRequest{Width: res.W, Height: res.H, SLOMillis: slo.Milliseconds()}, &v); err != nil {
				t.Fatal(err)
			}
			if want := v.Feasibility(); !sameProjection(got, want) {
				t.Fatalf("%v slo %v:\n  digest: %+v\n  probe:  %+v", res, slo, got, want)
			}
			if got.Pending+got.Running != 5 || got.QueueGPUSeconds <= 0 {
				t.Fatalf("digest missed the backlog: %+v", got)
			}
		}
	}
	// One HTTP probe to start the stream, one per comparison above.
	if n, want := g.probes.Load(), int64(1+3*len(model.StandardResolutions())); n != want {
		t.Fatalf("HTTP probes = %d, want %d: digest answers went over the wire", n, want)
	}
}

// TestRemoteShardUnreflectedSubmitProbesOnce: while a shard's stream cannot
// deliver, a job the router just submitted there is not in its digest, so
// the next decision probes exactly that shard over HTTP; every other shard
// and, once the stream catches up, that shard too answer from the digest.
func TestRemoteShardUnreflectedSubmitProbesOnce(t *testing.T) {
	shards := []*gatedShard{newGatedShard(t, newDigestDriver(t, 0.001, 0)), newGatedShard(t, newDigestDriver(t, 0.001, 0))}
	remotes := make([]RouterShard, len(shards))
	for i, g := range shards {
		defer g.srv.Close()
		remotes[i] = NewRemoteShard(fmt.Sprintf("s%d", i), g.srv.URL)
	}
	api, err := NewRouterAPI(router.Config{}, remotes)
	if err != nil {
		t.Fatal(err)
	}
	defer api.Close()
	ts := httptest.NewServer(api.Handler())
	defer ts.Close()

	generate := func() RoutedJob {
		t.Helper()
		body, _ := json.Marshal(RoutedGenerateRequest{Prompt: "a lighthouse", Width: 512, Height: 512, SLOMillis: 600_000})
		resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rj RoutedJob
		if resp.StatusCode != http.StatusAccepted || json.NewDecoder(resp.Body).Decode(&rj) != nil {
			t.Fatalf("generate: HTTP %d", resp.StatusCode)
		}
		return rj
	}
	hits := func() [2]int64 { return [2]int64{shards[0].probes.Load(), shards[1].probes.Load()} }
	allCurrent := func() bool {
		return digestCurrent(remotes[0].(*RemoteShard)) && digestCurrent(remotes[1].(*RemoteShard))
	}

	generate() // probes both shards over HTTP and starts both streams
	waitUntil(t, "both digests current", allCurrent)
	before := hits()
	generate()
	if after := hits(); after != before {
		t.Fatalf("HTTP probes %v → %v with both digests current", before, after)
	}
	waitUntil(t, "both digests current", allCurrent)

	for _, g := range shards {
		g.hold.Lock()
	}
	first := generate() // digest answers; the submit is now unreflected
	before = hits()
	generate()
	after := hits()
	for _, g := range shards {
		g.hold.Unlock()
	}
	k := map[string]int{"s0": 0, "s1": 1}[first.Shard]
	if after[k]-before[k] != 1 || after[1-k] != before[1-k] {
		t.Fatalf("after an unreflected submit to s%d: HTTP probes %v → %v, want exactly one, of s%d", k, before, after, k)
	}

	waitUntil(t, "both digests current", allCurrent)
	before = hits()
	generate()
	if after := hits(); after != before {
		t.Fatalf("HTTP probes %v → %v once the streams caught up", before, after)
	}

	scrape := httptest.NewRecorder()
	api.Handler().ServeHTTP(scrape, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{
		`tetriserve_router_projections_total{shard="s0",source="digest"}`,
		fmt.Sprintf(`tetriserve_router_projections_total{shard="s%d",source="probe"} 2`, k),
	} {
		if !strings.Contains(scrape.Body.String(), want) {
			t.Fatalf("router /metrics lacks %s:\n%s", want, scrape.Body.String())
		}
	}
}

// TestRemoteShardStreamCutFallsBackThenResubscribes: a cut stream whose
// reconnect is refused leaves the client on HTTP probes, and the next
// successful HTTP probe starts a new stream.
func TestRemoteShardStreamCutFallsBackThenResubscribes(t *testing.T) {
	g := newGatedShard(t, newDigestDriver(t, 0.001, 0))
	defer g.srv.Close()
	rs := NewRemoteShard("a", g.srv.URL)
	defer rs.Close()
	probe := func() {
		t.Helper()
		if _, err := rs.ProbeFeasibility(model.Res512, 0, 20*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	probe()
	waitUntil(t, "a live digest", func() bool { return digestCurrent(rs) })
	probe()
	if n := g.probes.Load(); n != 1 {
		t.Fatalf("HTTP probes = %d, want 1 (the one that started the stream)", n)
	}

	g.refuse.Store(true)
	g.srv.CloseClientConnections()
	waitUntil(t, "the stream goroutine to give up", func() bool { return !following(rs) })
	probe()
	if n := g.probes.Load(); n != 2 {
		t.Fatalf("HTTP probes = %d after the cut, want 2", n)
	}

	g.refuse.Store(false)
	probe() // a successful HTTP probe: starts a new stream
	waitUntil(t, "a live digest again", func() bool { return digestCurrent(rs) })
	probe()
	if n := g.probes.Load(); n != 3 {
		t.Fatalf("HTTP probes = %d after resubscribing, want 3", n)
	}
}

// TestRemoteShardFollowsARestartedShard: a restarted shard numbers its jobs
// from 0 again, so its watermark starts below the jobs the client submitted
// to the old process; the client must take that as a restart and go back to
// the digest, not probe over HTTP until the new process catches up.
func TestRemoteShardFollowsARestartedShard(t *testing.T) {
	old := newDigestDriver(t, 0.001, 0)
	g := newGatedShard(t, old)
	addr := g.srv.Listener.Addr().String()
	rs := NewRemoteShard("a", g.srv.URL)
	defer rs.Close()
	for i := 0; i < 3; i++ {
		if _, err := rs.Submit(workload.Prompt{Text: fmt.Sprint(i)}, model.Res512, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rs.ProbeFeasibility(model.Res512, 0, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "a digest with the old process's jobs", func() bool { return digestCurrent(rs) })
	old.Stop() // ends the stream; its reconnect finds no running driver
	g.srv.Close()
	waitUntil(t, "the stream goroutine to give up", func() bool { return !following(rs) })

	g = newGatedShardAt(t, newDigestDriver(t, 0.001, 0), addr)
	defer g.srv.Close()
	defer rs.Close() // again, now before this server's Close
	if _, err := rs.ProbeFeasibility(model.Res512, 0, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "a current digest from the new process", func() bool { return digestCurrent(rs) })
	if _, err := rs.ProbeFeasibility(model.Res512, 0, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if n := g.probes.Load(); n != 1 {
		t.Fatalf("HTTP probes to the restarted shard = %d, want 1 (the one that started its stream)", n)
	}
}

// TestDigestStreamLeavesNoGoroutines: whether the router closes its shard
// clients first or the shard server simply goes away, every stream
// goroutine on both sides exits.
func TestDigestStreamLeavesNoGoroutines(t *testing.T) {
	settle := func(baseline int, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%s: %d goroutines, baseline %d\n%s", what,
					runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
			}
			http.DefaultTransport.(*http.Transport).CloseIdleConnections()
			time.Sleep(time.Millisecond)
		}
	}

	t.Run("RouterAPI.Close", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		d := newDigestDriver(t, 0.001, 0)
		srv := httptest.NewServer(NewAPI(d).Handler())
		rs := NewRemoteShard("a", srv.URL)
		api, err := NewRouterAPI(router.Config{}, []RouterShard{rs})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rs.ProbeFeasibility(model.Res512, 0, 20*time.Second); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "a live digest", func() bool { return digestCurrent(rs) })
		api.Close()
		srv.Close()
		d.Stop()
		settle(baseline, "after RouterAPI.Close")
	})

	t.Run("server close", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		d := newDigestDriver(t, 0.001, 0)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: NewAPI(d).Handler()}
		served := make(chan struct{})
		go func() {
			defer close(served)
			_ = srv.Serve(ln)
		}()
		rs := NewRemoteShard("a", "http://"+ln.Addr().String())
		if _, err := rs.ProbeFeasibility(model.Res512, 0, 20*time.Second); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "a live digest", func() bool { return digestCurrent(rs) })
		_ = srv.Close() // no rs.Close: the stream must notice on its own
		<-served
		waitUntil(t, "the stream goroutine to give up", func() bool { return !following(rs) })
		d.Stop()
		settle(baseline, "after the shard server closed")
	})
}

// TestCacheAssistedAdmissionCrossesTheWire: a request only the step-cache
// projection can win is routed CacheAssisted in process and across HTTP —
// the wire carries the cache projection.
func TestCacheAssistedAdmissionCrossesTheWire(t *testing.T) {
	d := newDigestDriver(t, 0.001, 4)
	f, err := d.Probe(model.Res1024, 0, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if f.CachedFinish >= f.ProjectedFinish {
		t.Fatalf("cache interval 4 projects no saving: %+v", f)
	}
	// An SLO, in whole milliseconds, between the cached and the plain finish.
	slo := ((f.CachedFinish - f.Now) + (f.ProjectedFinish - f.Now)) / 2 / time.Millisecond * time.Millisecond

	srv := httptest.NewServer(NewAPI(d).Handler())
	defer srv.Close()
	remote := NewRemoteShard("remote", srv.URL)
	defer remote.Close()
	for _, s := range []router.Shard{&LocalShard{ShardName: "local", Driver: d}, remote} {
		rt, err := router.New(router.Config{}, []router.Shard{s})
		if err != nil {
			t.Fatal(err)
		}
		dec := rt.Route("", model.Res1024, 0, slo)
		if !dec.Accepted || !dec.CacheAssisted {
			t.Fatalf("%s: want a cache-assisted admission, got %+v", s.Name(), dec)
		}
	}
}
