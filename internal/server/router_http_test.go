package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
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

// --- satellite: SSE follower unsubscription ------------------------------

// TestTraceFollowSubscriberCountReturnsToBaseline is the follower-leak
// regression: every follower that goes away — client disconnect, mid-stream
// — must drop its bus subscription, returning the subscriber count to
// baseline. Pre-fix, a wedged follower held its subscription forever.
func TestTraceFollowSubscriberCountReturnsToBaseline(t *testing.T) {
	d := newTestDriver(t)
	ts := httptest.NewServer(NewAPI(d).Handler())
	defer ts.Close()

	baseline := d.Telemetry().Bus.Subscribers()

	const followers = 3
	ctx, cancel := context.WithCancel(context.Background())
	var resps []*http.Response
	for i := 0; i < followers; i++ {
		req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/trace?follow=1", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept", "text/event-stream")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resps = append(resps, resp)
	}

	waitFor := func(want int, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for d.Telemetry().Bus.Subscribers() != want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: subscribers = %d, want %d",
					what, d.Telemetry().Bus.Subscribers(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor(baseline+followers, "after connect")

	// Disconnect every follower; each handler must exit through its deferred
	// unsubscribe.
	cancel()
	for _, resp := range resps {
		resp.Body.Close()
	}
	waitFor(baseline, "after disconnect")
}

// --- satellite: double-WriteHeader discipline -----------------------------

// strictWriter fails every Write after the header and counts WriteHeader
// calls — net/http logs "superfluous WriteHeader" and drops the second
// status, so >1 is always a bug.
type strictWriter struct {
	header  http.Header
	headers []int
	writes  int
}

func (w *strictWriter) Header() http.Header { return w.header }
func (w *strictWriter) WriteHeader(code int) {
	w.headers = append(w.headers, code)
}
func (w *strictWriter) Write(b []byte) (int, error) {
	w.writes++
	return 0, fmt.Errorf("client went away")
}

// TestWriteJSONMidStreamFailureLogsOnce pins the serving-path write
// discipline: when the response body write fails after the 200 status line
// is out, the handler must log the failure — exactly one WriteHeader, no
// http.Error fallback, and the error is not swallowed silently (pre-fix the
// encode error was discarded with no trace).
func TestWriteJSONMidStreamFailureLogsOnce(t *testing.T) {
	var logs []string
	a := &API{Logf: func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	}}

	w := &strictWriter{header: http.Header{}}
	writeJSON(a.Logf, w, http.StatusOK, map[string]string{"k": "v"})

	if len(w.headers) != 1 || w.headers[0] != http.StatusOK {
		t.Fatalf("WriteHeader calls = %v, want exactly [200]", w.headers)
	}
	if len(logs) != 1 {
		t.Fatalf("mid-stream write failure produced %d log lines, want 1: %v", len(logs), logs)
	}
	if !strings.Contains(logs[0], "client went away") {
		t.Fatalf("log line must carry the write error: %q", logs[0])
	}
}

// TestHTTPErrorSingleHeader: the error path shares the same discipline.
func TestHTTPErrorSingleHeader(t *testing.T) {
	var logs []string
	a := &API{Logf: func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	}}
	w := &strictWriter{header: http.Header{}}
	httpError(a.Logf, w, http.StatusBadRequest, "bad input %d", 7)
	if len(w.headers) != 1 || w.headers[0] != http.StatusBadRequest {
		t.Fatalf("WriteHeader calls = %v, want exactly [400]", w.headers)
	}
	if len(logs) != 1 {
		t.Fatalf("want the failed error write logged once, got %v", logs)
	}
}

// --- satellite: unknown resolution is a client error ----------------------

// TestGenerateUnknownResolutionIs400: a valid-but-unprofiled resolution is a
// malformed request for this deployment, not a transient serving condition —
// pre-fix it surfaced as 422.
func TestGenerateUnknownResolutionIs400(t *testing.T) {
	d := newTestDriver(t)
	ts := httptest.NewServer(NewAPI(d).Handler())
	defer ts.Close()

	body, _ := json.Marshal(GenerateRequest{Prompt: "a lighthouse", Width: 48, Height: 48})
	resp, err := http.Post(ts.URL+"/v1/images/generations", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 for unprofiled resolution", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "supported") {
		t.Fatalf("error should list supported resolutions: %q", e.Error)
	}
}

// --- shard probe endpoint --------------------------------------------------

func TestProbeEndpoint(t *testing.T) {
	d := newTestDriver(t)
	ts := httptest.NewServer(NewAPI(d).Handler())
	defer ts.Close()

	post := func(t *testing.T, req ProbeRequest) (*http.Response, FeasibilityView) {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/probe", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		var v FeasibilityView
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
				t.Fatal(err)
			}
		}
		return resp, v
	}

	resp, v := post(t, ProbeRequest{Width: 512, Height: 512, SLOMillis: 30_000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe status %d", resp.StatusCode)
	}
	if !v.Winnable || v.HealthyGPUs != 8 {
		t.Fatalf("idle pool probe: %+v", v)
	}
	// Round-trip: the view must rebuild the same Feasibility the router sees.
	f := v.Feasibility()
	if !f.Winnable || f.HealthyGPUs != 8 || f.Slack != time.Duration(v.SlackUS)*time.Microsecond {
		t.Fatalf("view round-trip lost fields: %+v", f)
	}

	if resp, _ := post(t, ProbeRequest{Width: 48, Height: 48, SLOMillis: 1000}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unprofiled probe status %d, want 400", resp.StatusCode)
	}
	if resp, _ := post(t, ProbeRequest{Width: 512, Height: 512}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing SLO probe status %d, want 400", resp.StatusCode)
	}
}

// --- router mode end-to-end ------------------------------------------------

func newShardDriver(t *testing.T, gpus int) *Driver {
	t.Helper()
	mdl := model.FLUX()
	topo := simgpu.H100xN(gpus)
	prof := costmodel.BuildProfile(costmodel.NewEstimator(mdl, topo), costmodel.ProfilerConfig{})
	d, err := NewDriver(DriverConfig{
		Model:     mdl,
		Topo:      topo,
		Scheduler: core.NewScheduler(prof, topo, core.DefaultConfig()),
		Speedup:   200,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	t.Cleanup(d.Stop)
	return d
}

func TestRouterAPIEndToEnd(t *testing.T) {
	shardA := newShardDriver(t, 2)
	shardB := newShardDriver(t, 2)

	api, err := NewRouterAPI(router.Config{}, []RouterShard{
		&LocalShard{ShardName: "a", Driver: shardA},
		&LocalShard{ShardName: "b", Driver: shardB},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(api.Handler())
	defer ts.Close()

	post := func(t *testing.T, req RoutedGenerateRequest) *http.Response {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// Accepted submission: routed to some shard, job enqueued there.
	resp := post(t, RoutedGenerateRequest{Prompt: "a koi pond", Width: 512, Height: 512, SLOMillis: 30_000})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	var rj RoutedJob
	if err := json.NewDecoder(resp.Body).Decode(&rj); err != nil {
		t.Fatal(err)
	}
	if rj.Shard != "a" && rj.Shard != "b" {
		t.Fatalf("routed to unknown shard %q", rj.Shard)
	}
	if rj.SlackUS <= 0 {
		t.Fatalf("accepted submission must carry positive slack, got %d", rj.SlackUS)
	}
	target := shardA
	if rj.Shard == "b" {
		target = shardB
	}
	if _, ok := target.JobStatus(rj.ID); !ok {
		t.Fatalf("job %d not tracked on shard %s", rj.ID, rj.Shard)
	}

	// Impossible deadline: early 429 with a Retry-After hint.
	resp = post(t, RoutedGenerateRequest{Prompt: "a storm", Width: 1024, Height: 1024, SLOMillis: 1})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 for hopeless SLO", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	var rb rejectBody
	if err := json.NewDecoder(resp.Body).Decode(&rb); err != nil {
		t.Fatal(err)
	}
	if rb.Reason != string(router.ReasonInfeasible) || rb.RetryAfterMS <= 0 {
		t.Fatalf("reject body %+v", rb)
	}

	// Unknown resolution: client error, not capacity.
	resp = post(t, RoutedGenerateRequest{Prompt: "tiny", Width: 48, Height: 48, SLOMillis: 1000})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 for unprofiled resolution", resp.StatusCode)
	}

	// Stats reflect the three decisions; explain returns them.
	sresp, err := http.Get(ts.URL + "/v1/router/stats?explain=10")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var view struct {
		router.Stats
		Explain []json.RawMessage `json:"explain"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.Decisions != 3 || view.Routed != 1 || view.Infeasible != 1 || view.Unknown != 1 {
		t.Fatalf("stats %+v", view.Stats)
	}
	if len(view.Explain) != 3 {
		t.Fatalf("explain returned %d decisions, want 3", len(view.Explain))
	}

	// Metrics exposition carries the router counters.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `tetriserve_router_decisions_total{reason="routed"} 1`) {
		t.Fatalf("metrics missing router counters:\n%s", buf.String())
	}
}

// TestRouterOverRemoteShards runs the same admission path with the shard on
// the other side of HTTP: RemoteShard → /v1/probe → route → RemoteShard →
// /v1/images/generations.
func TestRouterOverRemoteShards(t *testing.T) {
	d := newShardDriver(t, 2)
	shardSrv := httptest.NewServer(NewAPI(d).Handler())
	defer shardSrv.Close()

	api, err := NewRouterAPI(router.Config{}, []RouterShard{
		NewRemoteShard("remote-a", shardSrv.URL),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer api.Close() // before shardSrv.Close, which waits for the digest stream
	ts := httptest.NewServer(api.Handler())
	defer ts.Close()

	body, _ := json.Marshal(RoutedGenerateRequest{
		Prompt: "a koi pond", Width: 512, Height: 512, SLOMillis: 30_000,
	})
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	var rj RoutedJob
	if err := json.NewDecoder(resp.Body).Decode(&rj); err != nil {
		t.Fatal(err)
	}
	if rj.Shard != "remote-a" {
		t.Fatalf("routed to %q", rj.Shard)
	}
	if _, ok := d.JobStatus(rj.ID); !ok {
		t.Fatalf("job %d not tracked on the remote shard", rj.ID)
	}
}

// TestRouterAPIConcurrentSubmissions exercises the router's mutex under
// parallel handler goroutines (run with -race).
func TestRouterAPIConcurrentSubmissions(t *testing.T) {
	d := newShardDriver(t, 4)
	api, err := NewRouterAPI(router.Config{}, []RouterShard{
		&LocalShard{ShardName: "a", Driver: d},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(api.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(RoutedGenerateRequest{
				Prompt: fmt.Sprintf("prompt %d", i), Width: 512, Height: 512,
				SLOMillis: 60_000, Tenant: fmt.Sprintf("t%d", i%3),
			})
			resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
			if err == nil {
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()
	if st := api.Router().Stats(); st.Decisions != 16 {
		t.Fatalf("decisions = %d, want 16", st.Decisions)
	}
}

// clockShard is a RouterShard with a scripted probe answer that accepts
// every submission.
type clockShard struct {
	feas    control.Feasibility
	submits int
}

func (s *clockShard) Name() string { return "clock" }

func (s *clockShard) ProbeFeasibility(model.Resolution, int, time.Duration) (control.Feasibility, error) {
	return s.feas, nil
}

func (s *clockShard) Submit(workload.Prompt, model.Resolution, time.Duration) (Job, error) {
	s.submits++
	return Job{ID: workload.RequestID(s.submits)}, nil
}

// routedPost submits one routed request straight to the handler and returns
// the status code.
func routedPost(t *testing.T, h http.Handler, req RoutedGenerateRequest) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/generate", bytes.NewReader(body)))
	return rec.Code
}

// TestRouterAPIRejectsSteps: shards serve every job at the model's default
// step count, so a routed request asking for another count is a client
// error — admitting it on a projection for steps the shard will not run
// would be unsound.
func TestRouterAPIRejectsSteps(t *testing.T) {
	shard := &clockShard{feas: control.Feasibility{Winnable: true, Slack: time.Second, HealthyGPUs: 2, ServiceGPUSeconds: 1}}
	api, err := NewRouterAPI(router.Config{}, []RouterShard{shard})
	if err != nil {
		t.Fatal(err)
	}
	h := api.Handler()
	req := RoutedGenerateRequest{Prompt: "a koi pond", Width: 512, Height: 512, SLOMillis: 30_000, Steps: 10}
	if code := routedPost(t, h, req); code != http.StatusBadRequest {
		t.Fatalf("steps 10: status %d, want 400", code)
	}
	if shard.submits != 0 || api.Router().Stats().Decisions != 0 {
		t.Fatalf("a rejected steps request reached the router or the shard")
	}
	req.Steps = 0
	if code := routedPost(t, h, req); code != http.StatusAccepted {
		t.Fatalf("default steps: status %d, want 202", code)
	}
}

// TestRouterAPIFairnessWindowOnShardClock: the fairness window runs on the
// shard clock the probes report, the time base of the GPU·seconds it weighs,
// not on the router's wall time. The shard clock reads an hour — where a
// Speedup far above 1 puts it within minutes — so capacity over the 60 s
// window is 0.85 × 2 GPUs × 60 s = 102 GPU·s; every admission books 1 GPU·s
// and tenants weigh gold 3 : bronze 1.
func TestRouterAPIFairnessWindowOnShardClock(t *testing.T) {
	shard := &clockShard{feas: control.Feasibility{
		Now: time.Hour, Winnable: true, Slack: time.Second, HealthyGPUs: 2, ServiceGPUSeconds: 1,
	}}
	api, err := NewRouterAPI(router.Config{
		TenantWeights: map[string]float64{"gold": 3, "bronze": 1},
	}, []RouterShard{shard})
	if err != nil {
		t.Fatal(err)
	}
	h := api.Handler()
	post := func(tenant string) int {
		return routedPost(t, h, RoutedGenerateRequest{
			Prompt: "a koi pond", Width: 512, Height: 512, SLOMillis: 30_000, Tenant: tenant,
		})
	}
	// 100 GPU·s, half of it bronze's: under capacity, so nothing is shed
	// although bronze is far over its quarter share.
	for i := 0; i < 50; i++ {
		for _, tenant := range []string{"gold", "bronze"} {
			if code := post(tenant); code != http.StatusAccepted {
				t.Fatalf("pair %d, %s: status %d with the window under capacity", i, tenant, code)
			}
		}
	}
	// Gold, within its share, is admitted past the bound (104 GPU·s)...
	for i := 0; i < 4; i++ {
		if code := post("gold"); code != http.StatusAccepted {
			t.Fatalf("gold %d: status %d, want 202 (within its share)", i, code)
		}
	}
	// ...and now bronze, over its share in an overloaded window, is shed.
	if code := post("bronze"); code != http.StatusTooManyRequests {
		t.Fatalf("bronze past the bound: status %d, want 429", code)
	}
	if st := api.Router().Stats(); st.Shed != 1 || st.Routed != 104 {
		t.Fatalf("shed %d routed %d, want 1 and 104", st.Shed, st.Routed)
	}
}
