package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/lifecycle"
	"tetriserve/internal/model"
	"tetriserve/internal/router"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/telemetry"
	"tetriserve/internal/workload"
)

// RouterShard is a pool the routing tier can probe and submit to: the
// router.Shard contract plus a submission path. LocalShard wraps an
// in-process Driver; RemoteShard speaks to a shard daemon over HTTP.
type RouterShard interface {
	router.Shard
	Submit(prompt workload.Prompt, res model.Resolution, slo time.Duration) (Job, error)
}

// TracedSubmitter is the optional extension shards implement to accept
// router-minted fleet-trace context alongside a submission. Shards without
// it still serve; their timelines just carry shard-derived trace ids.
type TracedSubmitter interface {
	SubmitTraced(prompt workload.Prompt, res model.Resolution, slo time.Duration, traceID, tenant string) (Job, error)
}

// StatsFetcher is the optional extension the fleet view uses to pull a
// shard's serving statistics.
type StatsFetcher interface {
	FetchStats() (Stats, error)
}

// TimelineFetcher is the optional extension the router's request-timeline
// proxy uses. ok=false (with nil error) means the shard has no timeline for
// the key.
type TimelineFetcher interface {
	FetchTimeline(key string) (*lifecycle.Timeline, bool, error)
}

// LocalShard adapts an in-process Driver (its Probe/Submit are already
// goroutine-safe channel round-trips).
type LocalShard struct {
	ShardName string
	Driver    *Driver
}

// Name returns the shard's display name.
func (s *LocalShard) Name() string { return s.ShardName }

// ProbeFeasibility implements router.Shard.
func (s *LocalShard) ProbeFeasibility(res model.Resolution, steps int, slo time.Duration) (control.Feasibility, error) {
	return s.Driver.Probe(res, steps, slo)
}

// Submit implements RouterShard.
func (s *LocalShard) Submit(prompt workload.Prompt, res model.Resolution, slo time.Duration) (Job, error) {
	return s.Driver.Submit(prompt, res, slo)
}

// SubmitTraced implements TracedSubmitter.
func (s *LocalShard) SubmitTraced(prompt workload.Prompt, res model.Resolution, slo time.Duration, traceID, tenant string) (Job, error) {
	return s.Driver.SubmitTraced(prompt, res, slo, traceID, tenant)
}

// FetchStats implements StatsFetcher.
func (s *LocalShard) FetchStats() (Stats, error) { return s.Driver.Snapshot(), nil }

// FetchTimeline implements TimelineFetcher.
func (s *LocalShard) FetchTimeline(key string) (*lifecycle.Timeline, bool, error) {
	tl, ok := s.Driver.Timeline(key)
	return tl, ok, nil
}

// ResizableShard is a pool whose GPU count the elastic rebalancer can change.
// Resize requests the shard own exactly its lowest-id n GPUs (capacity stays
// a contiguous prefix, preserving buddy alignment for group formation); the
// change lands at the shard loop's next round boundary.
type ResizableShard interface {
	RouterShard
	Resize(n int) error
}

// Resize implements ResizableShard.
func (s *LocalShard) Resize(n int) error {
	return s.Driver.Resize(simgpu.MaskRange(0, n))
}

// Resize implements ResizableShard over HTTP (POST /v1/resize).
func (s *RemoteShard) Resize(n int) error {
	var st Stats
	return s.post("/v1/resize", ResizeRequest{NumGPUs: n}, &st)
}

// RemoteShard speaks the shard API of a tetriserve daemon running in -mode
// shard. It answers feasibility probes locally, from the load digest the
// shard streams (GET /v1/digest?follow=1): the digest is exact until the
// shard's next loop event, so the common admission makes one HTTP call, its
// submit. It falls back to POST /v1/probe while it has no live digest, while
// a job it submitted is not in the digest yet (the watermark), and for a
// resolution the digest has no row for. The first successful HTTP probe
// starts the stream; a stream that ends is reconnected once. Close stops it.
type RemoteShard struct {
	ShardName string
	BaseURL   string
	// Client defaults to a 10 s-timeout http.Client; the digest stream uses
	// a copy without the timeout.
	Client *http.Client

	dg digestState
}

// NewRemoteShard builds a remote shard client; the name defaults to the URL.
func NewRemoteShard(name, baseURL string) *RemoteShard {
	if name == "" {
		name = baseURL
	}
	return &RemoteShard{
		ShardName: name,
		BaseURL:   strings.TrimRight(baseURL, "/"),
		Client:    &http.Client{Timeout: 10 * time.Second},
	}
}

// Name returns the shard's display name.
func (s *RemoteShard) Name() string { return s.ShardName }

// errShardNotFound marks a 404 from a shard (no such job/timeline) so
// callers can distinguish "not here" from transport failure.
var errShardNotFound = errors.New("not found")

func (s *RemoteShard) post(path string, in, out any) error {
	return s.do(http.MethodPost, path, nil, in, out)
}

func (s *RemoteShard) get(path string, out any) error {
	return s.do(http.MethodGet, path, nil, nil, out)
}

func (s *RemoteShard) do(method, path string, hdr map[string]string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, s.BaseURL+path, body)
	if err != nil {
		return fmt.Errorf("shard %s: %w", s.ShardName, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		if v != "" {
			req.Header.Set(k, v)
		}
	}
	resp, err := s.Client.Do(req)
	if err != nil {
		return fmt.Errorf("shard %s: %w", s.ShardName, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return fmt.Errorf("shard %s: %w", s.ShardName, err)
	}
	if resp.StatusCode == http.StatusNotFound {
		return fmt.Errorf("shard %s: %w", s.ShardName, errShardNotFound)
	}
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("shard %s: %s", s.ShardName, e.Error)
		}
		return fmt.Errorf("shard %s: HTTP %d", s.ShardName, resp.StatusCode)
	}
	return json.Unmarshal(data, out)
}

// ProbeFeasibility implements router.Shard: from the shard's digest when it
// can stand in for the shard, over HTTP (POST /v1/probe) otherwise.
func (s *RemoteShard) ProbeFeasibility(res model.Resolution, steps int, slo time.Duration) (control.Feasibility, error) {
	if f, ok := s.project(res, steps, slo); ok {
		s.answered(true)
		return f, nil
	}
	var v FeasibilityView
	err := s.post("/v1/probe", ProbeRequest{
		Width: res.W, Height: res.H, Steps: steps, SLOMillis: slo.Milliseconds(),
	}, &v)
	if err != nil {
		return control.Feasibility{}, err
	}
	s.answered(false)
	s.follow()
	return v.Feasibility(), nil
}

// Submit implements RouterShard over HTTP.
func (s *RemoteShard) Submit(prompt workload.Prompt, res model.Resolution, slo time.Duration) (Job, error) {
	return s.SubmitTraced(prompt, res, slo, "", "")
}

// SubmitTraced implements TracedSubmitter over HTTP: the trace context
// rides in the X-Tetriserve-Trace / X-Tetriserve-Tenant headers.
func (s *RemoteShard) SubmitTraced(prompt workload.Prompt, res model.Resolution, slo time.Duration, traceID, tenant string) (Job, error) {
	var job Job
	err := s.do(http.MethodPost, "/v1/images/generations",
		map[string]string{TraceHeader: traceID, TenantHeader: tenant},
		GenerateRequest{
			Prompt: prompt.Text, Width: res.W, Height: res.H, SLOMillis: slo.Milliseconds(),
		}, &job)
	if err == nil {
		s.submittedJob(job.ID)
	}
	return job, err
}

// FetchStats implements StatsFetcher over HTTP (GET /v1/stats).
func (s *RemoteShard) FetchStats() (Stats, error) {
	var st Stats
	err := s.get("/v1/stats", &st)
	return st, err
}

// FetchTimeline implements TimelineFetcher over HTTP (GET /v1/requests/{id}).
func (s *RemoteShard) FetchTimeline(key string) (*lifecycle.Timeline, bool, error) {
	var tl lifecycle.Timeline
	err := s.get("/v1/requests/"+url.PathEscape(key), &tl)
	if errors.Is(err, errShardNotFound) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return &tl, true, nil
}

// RouterAPI is the admission/routing front end — the -mode router HTTP
// surface:
//
//	POST /v1/generate        {prompt, width, height, slo_ms?, tenant?}
//	                         → 202 job + shard on accept,
//	                           429 + Retry-After on early reject,
//	                           400 for unknown resolutions or a non-zero
//	                           steps (shards serve the model's default)
//	GET  /v1/router/stats    → admission counters, per-shard and per-tenant
//	GET  /v1/router/stats?explain=K → + the last K routing decisions, each
//	                           stamped (at_us) with the router's shard clock
//	GET  /v1/requests/{id}   → lifecycle span timeline, proxied from the
//	                           shard the trace was routed to
//	GET  /v1/fleet           → one aggregated fleet document (router stats,
//	                           per-shard stats + attainment + queue depth,
//	                           rebalance history)
//	GET  /metrics            → Prometheus text exposition (router metrics)
//	GET  /healthz            → 200 ok
//
// The router's fairness window runs on the shard clock: the latest
// Feasibility.Now its probes report (router.Route), the same time base as the
// GPU·seconds it weighs, whatever each shard's Speedup.
type RouterAPI struct {
	// Logf is the serving-path diagnostic sink, as on API.
	Logf func(format string, args ...any)

	rt         *router.Router
	shards     []RouterShard
	plane      *telemetry.RouterPlane
	hashPrompt func(string) workload.Prompt

	// mu guards the trace → shard placement map (a bounded FIFO: traceCap
	// newest routed requests stay resolvable without fanning the timeline
	// proxy out to every shard).
	mu         sync.Mutex
	traceShard map[string]int
	traceFIFO  []string
	traceCap   int

	// reb, when attached, contributes elastic rebalance history to /v1/fleet.
	reb *LiveRebalancer
}

// NewRouterAPI wires shards behind a router with telemetry attached.
func NewRouterAPI(cfg router.Config, shards []RouterShard) (*RouterAPI, error) {
	a := &RouterAPI{
		shards:     shards,
		plane:      telemetry.NewRouterPlane(nil),
		hashPrompt: HashPrompt,
		traceShard: map[string]int{},
		traceCap:   16384,
	}
	cfg.Observer = a.plane.Observe
	rs := make([]router.Shard, len(shards))
	for i, s := range shards {
		rs[i] = s
	}
	rt, err := router.New(cfg, rs)
	if err != nil {
		return nil, err
	}
	a.rt = rt
	answers := a.plane.Registry.CounterVec("tetriserve_router_projections_total",
		"Feasibility answers from remote shards, by shard and source (digest: computed from the shard's streamed load digest; probe: an HTTP probe).",
		"shard", "source")
	for _, s := range shards {
		if rs, ok := s.(*RemoteShard); ok {
			rs.countProjections(answers.With(s.Name(), "digest"), answers.With(s.Name(), "probe"))
		}
	}
	return a, nil
}

// Close stops every remote shard's digest stream and waits for it. Call it
// before the shards' servers go away: an httptest server's Close waits for
// the stream handlers.
func (a *RouterAPI) Close() {
	for _, s := range a.shards {
		if c, ok := s.(interface{ Close() }); ok {
			c.Close()
		}
	}
}

// Router exposes the underlying router (stats, tests).
func (a *RouterAPI) Router() *router.Router { return a.rt }

// AttachRebalancer lets /v1/fleet report elastic GPU-move history.
func (a *RouterAPI) AttachRebalancer(rb *LiveRebalancer) { a.reb = rb }

// placeTrace records the shard an admitted trace landed on.
func (a *RouterAPI) placeTrace(id string, shard int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.traceFIFO) >= a.traceCap {
		evict := a.traceFIFO[0]
		a.traceFIFO = a.traceFIFO[1:]
		delete(a.traceShard, evict)
	}
	a.traceShard[id] = shard
	a.traceFIFO = append(a.traceFIFO, id)
}

// Telemetry exposes the router telemetry plane.
func (a *RouterAPI) Telemetry() *telemetry.RouterPlane { return a.plane }

// Handler returns the routed HTTP handler.
func (a *RouterAPI) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/generate", a.handleGenerate)
	mux.HandleFunc("GET /v1/router/stats", a.handleStats)
	mux.HandleFunc("GET /v1/requests/{id}", a.handleRequestTimeline)
	mux.HandleFunc("GET /v1/fleet", a.handleFleet)
	mux.Handle("GET /metrics", a.plane.Registry.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// RoutedGenerateRequest is the routing-mode submission payload.
type RoutedGenerateRequest struct {
	Prompt string `json:"prompt"`
	Width  int    `json:"width"`
	Height int    `json:"height"`
	// SLOMillis overrides the default per-resolution deadline.
	SLOMillis int64 `json:"slo_ms,omitempty"`
	// Steps must be 0: shards serve every job at the model's default step
	// count, so admitting on another count's projection would be unsound.
	Steps int `json:"steps,omitempty"`
	// Tenant is the weighted-fair admission identity ("" = default tenant).
	Tenant string `json:"tenant,omitempty"`
}

// RoutedJob is the accepted-submission response: the shard's job record plus
// where (and why) it landed.
type RoutedJob struct {
	Job
	Shard string `json:"shard"`
	// SlackUS is the chosen shard's projected deadline slack at admission.
	SlackUS int64 `json:"slack_us"`
}

// rejectBody explains a 429.
type rejectBody struct {
	Error        string `json:"error"`
	Reason       string `json:"reason"`
	RetryAfterMS int64  `json:"retry_after_ms"`
}

func (a *RouterAPI) handleGenerate(w http.ResponseWriter, r *http.Request) {
	var req RoutedGenerateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(a.Logf, w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if strings.TrimSpace(req.Prompt) == "" {
		httpError(a.Logf, w, http.StatusBadRequest, "prompt is required")
		return
	}
	res := model.Resolution{W: req.Width, H: req.Height}
	if !res.Valid() {
		httpError(a.Logf, w, http.StatusBadRequest, "width/height must be positive multiples of 16")
		return
	}
	if req.Steps != 0 {
		httpError(a.Logf, w, http.StatusBadRequest, "steps is not supported: shards serve the model's default step count")
		return
	}
	slo := time.Duration(req.SLOMillis) * time.Millisecond
	if slo <= 0 {
		slo = workload.NewSLOPolicy(1.0).InterpolatedBudget(res)
	}

	dec := a.rt.Route(req.Tenant, res, 0, slo)
	switch dec.Reason {
	case router.ReasonUnknown:
		httpError(a.Logf, w, http.StatusBadRequest, "resolution %v not profiled on any shard", res)
		return
	case router.ReasonInfeasible, router.ReasonShed:
		// Early rejection: admitting would burn GPU·seconds on a guaranteed
		// SLO miss (or starve in-budget tenants). Retry-After is in whole
		// seconds per RFC 9110, rounded up so clients never retry early.
		w.Header().Set("Retry-After",
			strconv.Itoa(int(math.Ceil(dec.RetryAfter.Seconds()))))
		writeJSON(a.Logf, w, http.StatusTooManyRequests, rejectBody{
			Error:        fmt.Sprintf("no shard can meet the %s deadline", slo),
			Reason:       string(dec.Reason),
			RetryAfterMS: dec.RetryAfter.Milliseconds(),
		})
		return
	}

	// The router minted the fleet-wide trace id at admission; shards that
	// understand traced submissions thread it through their lifecycle
	// recorder.
	trace := dec.TraceID
	a.placeTrace(trace, dec.Shard)
	var job Job
	var err error
	if ts, ok := a.shards[dec.Shard].(TracedSubmitter); ok {
		job, err = ts.SubmitTraced(a.hashPrompt(req.Prompt), res, slo, trace, req.Tenant)
	} else {
		job, err = a.shards[dec.Shard].Submit(a.hashPrompt(req.Prompt), res, slo)
	}
	if err != nil {
		// The probe said winnable but the shard refused (stopped, raced a
		// restart): surface as 503, the one transient case left.
		httpError(a.Logf, w, http.StatusServiceUnavailable, "shard %s: %v", dec.ShardName, err)
		return
	}
	if job.TraceID == "" {
		job.TraceID = trace
	}
	writeJSON(a.Logf, w, http.StatusAccepted, RoutedJob{
		Job:     job,
		Shard:   dec.ShardName,
		SlackUS: dec.Slack.Microseconds(),
	})
}

// handleRequestTimeline proxies GET /v1/requests/{id} to the shard the
// trace was routed to (falling back to asking every shard when the
// placement map no longer remembers the trace).
func (a *RouterAPI) handleRequestTimeline(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("id")
	a.mu.Lock()
	idx, known := a.traceShard[key]
	a.mu.Unlock()
	order := make([]int, 0, len(a.shards))
	if known {
		order = append(order, idx)
	} else {
		for i := range a.shards {
			order = append(order, i)
		}
	}
	var lastErr error
	for _, i := range order {
		tf, ok := a.shards[i].(TimelineFetcher)
		if !ok {
			continue
		}
		tl, found, err := tf.FetchTimeline(key)
		if err != nil {
			lastErr = err
			continue
		}
		if found {
			if tl.Shard == "" {
				tl.Shard = a.shards[i].Name()
			}
			writeJSON(a.Logf, w, http.StatusOK, tl)
			return
		}
	}
	if lastErr != nil {
		httpError(a.Logf, w, http.StatusBadGateway, "timeline %q: %v", key, lastErr)
		return
	}
	httpError(a.Logf, w, http.StatusNotFound, "no timeline for request %q", key)
}

// fleetShardView is one shard's slice of the fleet document.
type fleetShardView struct {
	Name string `json:"name"`
	// Reachable is false when the shard's stats fetch failed; Error then
	// carries the reason and Stats is zero.
	Reachable bool   `json:"reachable"`
	Error     string `json:"error,omitempty"`
	Stats     Stats  `json:"stats"`
	// QueueDepth and Attainment lift the two headline signals out of Stats.
	QueueDepth int     `json:"queue_depth"`
	Attainment float64 `json:"attainment"`
}

// fleetRebalanceView summarizes the elastic rebalancer for the fleet doc.
type fleetRebalanceView struct {
	Moves     int          `json:"moves"`
	GPUCounts []int        `json:"gpu_counts"`
	History   []MoveRecord `json:"history"`
}

// fleetView is the GET /v1/fleet response: the fleet's health in one
// document.
type fleetView struct {
	Router     router.Stats        `json:"router"`
	Shards     []fleetShardView    `json:"shards"`
	Rebalancer *fleetRebalanceView `json:"rebalancer,omitempty"`
}

func (a *RouterAPI) handleFleet(w http.ResponseWriter, _ *http.Request) {
	view := fleetView{Router: a.rt.Stats()}
	for _, s := range a.shards {
		sv := fleetShardView{Name: s.Name()}
		if sf, ok := s.(StatsFetcher); ok {
			st, err := sf.FetchStats()
			if err != nil {
				sv.Error = err.Error()
			} else {
				sv.Reachable = true
				sv.Stats = st
				sv.QueueDepth = st.Queued
				sv.Attainment = st.SAR
			}
		} else {
			sv.Error = "shard does not expose stats"
		}
		view.Shards = append(view.Shards, sv)
	}
	if a.reb != nil {
		view.Rebalancer = &fleetRebalanceView{
			Moves:     a.reb.Moves(),
			GPUCounts: a.reb.Counts(),
			History:   a.reb.History(),
		}
	}
	writeJSON(a.Logf, w, http.StatusOK, view)
}

// routerStatsView is the /v1/router/stats response.
type routerStatsView struct {
	router.Stats
	// Decisions holds the last K decisions when ?explain=K is set.
	Explain []decisionView `json:"explain,omitempty"`
}

// decisionView is the JSON shape of one routing decision.
type decisionView struct {
	// AtUS is the router's shard clock at the decision (router.Decision.At).
	AtUS         int64             `json:"at_us"`
	Tenant       string            `json:"tenant,omitempty"`
	Resolution   string            `json:"resolution"`
	SLOMS        int64             `json:"slo_ms"`
	Accepted     bool              `json:"accepted"`
	Reason       string            `json:"reason"`
	Shard        string            `json:"shard,omitempty"`
	SlackUS      int64             `json:"slack_us"`
	RetryAfterMS int64             `json:"retry_after_ms,omitempty"`
	Probes       []probeResultView `json:"probes"`
}

// probeResultView is one shard's projection inside a decision.
type probeResultView struct {
	Shard string `json:"shard"`
	Error string `json:"error,omitempty"`
	FeasibilityView
}

func (a *RouterAPI) handleStats(w http.ResponseWriter, r *http.Request) {
	view := routerStatsView{Stats: a.rt.Stats()}
	if s := r.URL.Query().Get("explain"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			httpError(a.Logf, w, http.StatusBadRequest, "invalid explain %q", s)
			return
		}
		for _, dec := range a.plane.Log.Snapshot(n) {
			dv := decisionView{
				AtUS:         dec.At.Microseconds(),
				Tenant:       dec.Tenant,
				Resolution:   dec.Res.String(),
				SLOMS:        dec.SLO.Milliseconds(),
				Accepted:     dec.Accepted,
				Reason:       string(dec.Reason),
				Shard:        dec.ShardName,
				SlackUS:      dec.Slack.Microseconds(),
				RetryAfterMS: dec.RetryAfter.Milliseconds(),
				Probes:       make([]probeResultView, 0, len(dec.Probes)),
			}
			for _, pr := range dec.Probes {
				dv.Probes = append(dv.Probes, probeResultView{
					Shard:           pr.Shard,
					Error:           pr.Err,
					FeasibilityView: NewFeasibilityView(pr.Feas),
				})
			}
			view.Explain = append(view.Explain, dv)
		}
	}
	writeJSON(a.Logf, w, http.StatusOK, view)
}
