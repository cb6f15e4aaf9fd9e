package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/model"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/trace"
	"tetriserve/internal/workload"
)

// API wraps a Driver with the HTTP surface:
//
//	POST /v1/images/generations   {prompt, width, height, slo_ms?} → Job
//	                              (X-Tetriserve-Trace / X-Tetriserve-Tenant
//	                              headers carry router-minted trace context)
//	GET  /v1/jobs/{id}            → Job, rendered from the lifecycle
//	                                timeline; {"id":N,"state":"queued"} for a
//	                                job not yet at the loop; 410 once the
//	                                timeline is evicted; 404 for an ID never
//	                                issued, and, once the driver stops, for
//	                                one whose job never reached the loop
//	GET  /v1/requests/{id}        → lifecycle span timeline (trace or job id)
//	GET  /v1/stats                → Stats
//	GET  /v1/profile              → offline-profiled step times
//	POST /v1/probe                {width, height, steps?, slo_ms} → feasibility
//	GET  /v1/digest               → the loop's load digest (ShardDigest): the
//	                                feasibility projection's inputs, exact
//	                                until the loop's next event
//	GET  /v1/digest?follow=1      → NDJSON stream: a digest whenever its load
//	                                changes (remote routers project from it)
//	POST /v1/faults               {fail_gpus?, recover_gpus?} → Stats
//	POST /v1/resize               {gpus:[ids]} | {num_gpus:N} → Stats
//	GET  /v1/trace                → JSONL event log (same format as tetrisim export)
//	GET  /v1/trace?follow=1       → live event feed (SSE with Accept:
//	                                text/event-stream, flushed JSONL otherwise)
//	GET  /v1/rounds?n=K           → last K round-decision records
//	GET  /metrics                 → Prometheus text exposition
//	GET  /healthz                 → 200 ok
//
// Wrong-method hits on registered paths return 405 with an Allow header
// (Go 1.22 method-pattern routing).
type API struct {
	Driver *Driver
	// Pprof additionally mounts net/http/pprof under /debug/pprof/.
	Pprof bool
	// Logf receives serving-path diagnostics that can no longer reach the
	// client — encode failures after the status line is written, truncated
	// streams. Defaults to log.Printf; tests inject a recorder.
	Logf func(format string, args ...any)
	// hashPrompt derives the structured prompt from free text; the
	// default buckets by a stable hash so similar texts share a theme.
	hashPrompt func(string) workload.Prompt
}

// NewAPI wires a driver into an HTTP handler set.
func NewAPI(d *Driver) *API {
	return &API{Driver: d, hashPrompt: HashPrompt}
}

// Handler returns the routed HTTP handler.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/images/generations", a.handleGenerate)
	mux.HandleFunc("GET /v1/jobs/{id}", a.handleJob)
	mux.HandleFunc("GET /v1/requests/{id}", a.handleRequestTimeline)
	mux.HandleFunc("GET /v1/stats", a.handleStats)
	mux.HandleFunc("GET /v1/profile", a.handleProfile)
	mux.HandleFunc("POST /v1/probe", a.handleProbe)
	mux.HandleFunc("GET /v1/digest", a.handleDigest)
	mux.HandleFunc("POST /v1/faults", a.handleFaults)
	mux.HandleFunc("POST /v1/resize", a.handleResize)
	mux.HandleFunc("GET /v1/trace", a.handleTrace)
	mux.HandleFunc("GET /v1/rounds", a.handleRounds)
	mux.Handle("GET /metrics", a.Driver.Telemetry().Registry.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	if a.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// GenerateRequest is the submission payload.
type GenerateRequest struct {
	Prompt string `json:"prompt"`
	Width  int    `json:"width"`
	Height int    `json:"height"`
	// SLOMillis overrides the default per-resolution deadline.
	SLOMillis int64 `json:"slo_ms,omitempty"`
}

func (a *API) handleGenerate(w http.ResponseWriter, r *http.Request) {
	var req GenerateRequest
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
	// Router-minted trace context rides in on headers (live path); direct
	// submissions get a shard-derived trace id.
	job, err := a.Driver.SubmitTraced(a.hashPrompt(req.Prompt), res,
		time.Duration(req.SLOMillis)*time.Millisecond,
		r.Header.Get(TraceHeader), r.Header.Get(TenantHeader))
	if err != nil {
		// A resolution the profile knows nothing about is a malformed request
		// for this deployment (400); transient serving conditions stay 422.
		code := http.StatusUnprocessableEntity
		if errors.Is(err, ErrUnknownResolution) {
			code = http.StatusBadRequest
		}
		httpError(a.Logf, w, code, "%v", err)
		return
	}
	writeJSON(a.Logf, w, http.StatusAccepted, job)
}

func (a *API) handleJob(w http.ResponseWriter, r *http.Request) {
	idStr := r.PathValue("id")
	id, err := strconv.Atoi(idStr)
	if err != nil {
		httpError(a.Logf, w, http.StatusBadRequest, "invalid job id %q", idStr)
		return
	}
	job, where := a.Driver.jobStatus(workload.RequestID(id))
	switch where {
	case jobUnissued:
		httpError(a.Logf, w, http.StatusNotFound, "job %d not found", id)
	case jobEvicted:
		httpError(a.Logf, w, http.StatusGone, "job %d evicted", id)
	case jobInTransit:
		// Nothing but the ID is known of a job the loop has not seen.
		writeJSON(a.Logf, w, http.StatusOK, map[string]any{"id": job.ID, "state": job.State})
	default:
		writeJSON(a.Logf, w, http.StatusOK, job)
	}
}

// TraceHeader and TenantHeader carry router-minted fleet-trace context on
// shard submissions.
const (
	TraceHeader  = "X-Tetriserve-Trace"
	TenantHeader = "X-Tetriserve-Tenant"
)

func (a *API) handleRequestTimeline(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("id")
	tl, ok := a.Driver.Timeline(key)
	if !ok {
		httpError(a.Logf, w, http.StatusNotFound, "no timeline for request %q", key)
		return
	}
	writeJSON(a.Logf, w, http.StatusOK, tl)
}

func (a *API) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(a.Logf, w, http.StatusOK, a.Driver.Snapshot())
}

// ProbeRequest asks the shard for a read-only deadline-feasibility
// projection — the admission router's per-shard question.
type ProbeRequest struct {
	Width  int `json:"width"`
	Height int `json:"height"`
	// Steps ≤ 0 defaults to the model's step count.
	Steps     int   `json:"steps,omitempty"`
	SLOMillis int64 `json:"slo_ms"`
}

// FeasibilityView is the JSON shape of control.Feasibility.
type FeasibilityView struct {
	Winnable          bool    `json:"winnable"`
	NowUS             int64   `json:"now_us"`
	DeadlineUS        int64   `json:"deadline_us"`
	ProjectedStartUS  int64   `json:"projected_start_us"`
	ProjectedFinishUS int64   `json:"projected_finish_us"`
	SlackUS           int64   `json:"slack_us"`
	QueueGPUSeconds   float64 `json:"queue_gpu_seconds"`
	ServiceGPUSeconds float64 `json:"service_gpu_seconds"`
	Pending           int     `json:"pending"`
	Running           int     `json:"running"`
	HealthyGPUs       int     `json:"healthy_gpus"`
	FreeGPUs          int     `json:"free_gpus"`
	MinStepUS         int64   `json:"min_step_us"`
	MinStepDegree     int     `json:"min_step_degree"`
	// MaxCacheInterval, CachedFinishUS and CachedWinnable carry the
	// step-cache projection (they mirror the plain one on a cache-oblivious
	// shard), so a remote shard can win a cache-assisted admission.
	MaxCacheInterval int   `json:"max_cache_interval"`
	CachedFinishUS   int64 `json:"cached_finish_us"`
	CachedWinnable   bool  `json:"cached_winnable"`
}

// NewFeasibilityView converts a probe result for the wire.
func NewFeasibilityView(f control.Feasibility) FeasibilityView {
	return FeasibilityView{
		Winnable:          f.Winnable,
		NowUS:             f.Now.Microseconds(),
		DeadlineUS:        f.Deadline.Microseconds(),
		ProjectedStartUS:  f.ProjectedStart.Microseconds(),
		ProjectedFinishUS: f.ProjectedFinish.Microseconds(),
		SlackUS:           f.Slack.Microseconds(),
		QueueGPUSeconds:   f.QueueGPUSeconds,
		ServiceGPUSeconds: f.ServiceGPUSeconds,
		Pending:           f.Pending,
		Running:           f.Running,
		HealthyGPUs:       f.HealthyGPUs,
		FreeGPUs:          f.FreeGPUs,
		MinStepUS:         f.MinStepTime.Microseconds(),
		MinStepDegree:     f.MinStepDegree,
		MaxCacheInterval:  f.MaxCacheInterval,
		CachedFinishUS:    f.CachedFinish.Microseconds(),
		CachedWinnable:    f.CachedWinnable,
	}
}

// Feasibility converts the wire shape back into control.Feasibility (the
// remote-shard client's inverse of NewFeasibilityView).
func (v FeasibilityView) Feasibility() control.Feasibility {
	return control.Feasibility{
		Winnable:          v.Winnable,
		Now:               time.Duration(v.NowUS) * time.Microsecond,
		Deadline:          time.Duration(v.DeadlineUS) * time.Microsecond,
		ProjectedStart:    time.Duration(v.ProjectedStartUS) * time.Microsecond,
		ProjectedFinish:   time.Duration(v.ProjectedFinishUS) * time.Microsecond,
		Slack:             time.Duration(v.SlackUS) * time.Microsecond,
		QueueGPUSeconds:   v.QueueGPUSeconds,
		ServiceGPUSeconds: v.ServiceGPUSeconds,
		Pending:           v.Pending,
		Running:           v.Running,
		HealthyGPUs:       v.HealthyGPUs,
		FreeGPUs:          v.FreeGPUs,
		MinStepTime:       time.Duration(v.MinStepUS) * time.Microsecond,
		MinStepDegree:     v.MinStepDegree,
		MaxCacheInterval:  v.MaxCacheInterval,
		CachedFinish:      time.Duration(v.CachedFinishUS) * time.Microsecond,
		CachedWinnable:    v.CachedWinnable,
	}
}

// handleProbe answers the router's feasibility question. 400 for unknown
// resolutions (feasibility of an uncalibrated shape is undefined), 200 with
// the projection otherwise — including Winnable=false, which is a verdict,
// not an error.
func (a *API) handleProbe(w http.ResponseWriter, r *http.Request) {
	var req ProbeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(a.Logf, w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	res := model.Resolution{W: req.Width, H: req.Height}
	if !res.Valid() {
		httpError(a.Logf, w, http.StatusBadRequest, "width/height must be positive multiples of 16")
		return
	}
	if req.SLOMillis <= 0 {
		httpError(a.Logf, w, http.StatusBadRequest, "slo_ms must be positive")
		return
	}
	feas, err := a.Driver.Probe(res, req.Steps, time.Duration(req.SLOMillis)*time.Millisecond)
	if err != nil {
		httpError(a.Logf, w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(a.Logf, w, http.StatusOK, NewFeasibilityView(feas))
}

// FaultRequest is the fault-injection payload: GPU ids to fail-stop and/or
// return to service.
type FaultRequest struct {
	FailGPUs    []int `json:"fail_gpus,omitempty"`
	RecoverGPUs []int `json:"recover_gpus,omitempty"`
}

func (a *API) handleFaults(w http.ResponseWriter, r *http.Request) {
	var req FaultRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(a.Logf, w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	toMask := func(ids []int) (simgpu.Mask, error) {
		var m simgpu.Mask
		for _, id := range ids {
			if id < 0 || id >= a.Driver.cfg.Topo.N {
				return 0, fmt.Errorf("GPU %d outside node of %d GPUs", id, a.Driver.cfg.Topo.N)
			}
			m |= simgpu.MaskOf(simgpu.GPUID(id))
		}
		return m, nil
	}
	fail, err := toMask(req.FailGPUs)
	if err != nil {
		httpError(a.Logf, w, http.StatusBadRequest, "%v", err)
		return
	}
	recov, err := toMask(req.RecoverGPUs)
	if err != nil {
		httpError(a.Logf, w, http.StatusBadRequest, "%v", err)
		return
	}
	if fail == 0 && recov == 0 {
		httpError(a.Logf, w, http.StatusBadRequest, "fail_gpus or recover_gpus required")
		return
	}
	if fail != 0 {
		if err := a.Driver.FailGPUs(fail); err != nil {
			httpError(a.Logf, w, http.StatusConflict, "%v", err)
			return
		}
	}
	if recov != 0 {
		if err := a.Driver.RecoverGPUs(recov); err != nil {
			httpError(a.Logf, w, http.StatusConflict, "%v", err)
			return
		}
	}
	writeJSON(a.Logf, w, http.StatusOK, a.Driver.Snapshot())
}

// ResizeRequest is the elastic capacity-change payload: either the explicit
// GPU ids the shard should own, or a count (the lowest-id N GPUs — keeping
// capacity a contiguous prefix preserves buddy alignment for group formation).
type ResizeRequest struct {
	GPUs    []int `json:"gpus,omitempty"`
	NumGPUs int   `json:"num_gpus,omitempty"`
}

// handleResize stages an elastic capacity change on the serving loop. The new
// capacity takes effect at the next round boundary: in-flight blocks on
// departing GPUs are preempted with full step credit and requeued (latent
// handoff), never dropped as fault victims. Responds with the pre-application
// stats snapshot; poll GET /v1/stats for capacity_gpus to confirm the change
// landed.
func (a *API) handleResize(w http.ResponseWriter, r *http.Request) {
	var req ResizeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(a.Logf, w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	n := a.Driver.cfg.Topo.N
	var mask simgpu.Mask
	switch {
	case len(req.GPUs) > 0 && req.NumGPUs > 0:
		httpError(a.Logf, w, http.StatusBadRequest, "gpus and num_gpus are mutually exclusive")
		return
	case len(req.GPUs) > 0:
		for _, id := range req.GPUs {
			if id < 0 || id >= n {
				httpError(a.Logf, w, http.StatusBadRequest, "GPU %d outside node of %d GPUs", id, n)
				return
			}
			m := simgpu.MaskOf(simgpu.GPUID(id))
			if mask&m != 0 {
				httpError(a.Logf, w, http.StatusBadRequest, "duplicate GPU %d", id)
				return
			}
			mask |= m
		}
	case req.NumGPUs > 0:
		if req.NumGPUs > n {
			httpError(a.Logf, w, http.StatusBadRequest, "num_gpus %d exceeds node of %d GPUs", req.NumGPUs, n)
			return
		}
		mask = simgpu.MaskRange(0, req.NumGPUs)
	default:
		httpError(a.Logf, w, http.StatusBadRequest, "gpus or num_gpus required")
		return
	}
	if err := a.Driver.Resize(mask); err != nil {
		httpError(a.Logf, w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(a.Logf, w, http.StatusOK, a.Driver.Snapshot())
}

// handleTrace streams the control loop's event log as JSON lines — the same
// format `tetrisim export` writes for offline runs, produced from the same
// shared Result, so the trace analyzer and Gantt renderer work unchanged
// against live traffic. With ?follow=1 it switches to a live feed from the
// telemetry bus instead.
func (a *API) handleTrace(w http.ResponseWriter, r *http.Request) {
	if f := r.URL.Query().Get("follow"); f != "" && f != "0" {
		a.followTrace(w, r)
		return
	}
	evs := trace.FromResult(a.Driver.Result())
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := trace.Write(w, evs); err != nil {
		// The 200 header is gone; a second WriteHeader would be worse than
		// the truncated stream. Log so the failure is visible server-side.
		logTo(a.Logf, "server: trace export truncated mid-stream: %v", err)
	}
}

// followTrace serves the live trace feed. The subscription buffers a bounded
// number of events; if this client reads too slowly the bus drops events for
// it (counted in tetriserve_trace_dropped_events_total) rather than ever
// stalling the control loop. Events stream as SSE when the client accepts
// text/event-stream, flushed JSONL otherwise, until the client disconnects.
func (a *API) followTrace(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(a.Logf, w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	// The deferred cancel is the unsubscribe contract: every exit path —
	// client disconnect (ctx done), write failure, stalled-socket deadline —
	// drops this subscriber, so the bus count returns to baseline and the
	// control loop never accumulates dead tails.
	ch, cancel := a.Driver.Telemetry().Bus.Subscribe(0)
	defer cancel()
	// A client that disconnects triggers ctx.Done, but one that merely stops
	// reading leaves the connection open and lets TCP backpressure block the
	// write forever, wedging this goroutine (and its subscription) for good.
	// Per-write deadlines bound that: a write stalled past the window fails,
	// and the handler exits through the same unsubscribe path. Recorders and
	// exotic wrappers without deadline support are fine — SetWriteDeadline
	// just returns ErrNotSupported and the ctx.Done path still applies.
	rc := http.NewResponseController(w)
	const writeWindow = 30 * time.Second
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-ch:
			b, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			_ = rc.SetWriteDeadline(time.Now().Add(writeWindow))
			if sse {
				_, err = fmt.Fprintf(w, "data: %s\n\n", b)
			} else {
				_, err = fmt.Fprintf(w, "%s\n", b)
			}
			if err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// roundDecisionView is the JSON shape of one request's placement decision.
type roundDecisionView struct {
	Request    int    `json:"request"`
	Resolution string `json:"resolution"`
	Degree     int    `json:"degree"`
	Steps      int    `json:"steps"`
	GPUs       []int  `json:"gpus"`
	BestEffort bool   `json:"best_effort,omitempty"`
	Batched    bool   `json:"batched,omitempty"`
	// DeadlineSlackUS is deadline − decision time (negative = already late).
	DeadlineSlackUS int64 `json:"deadline_slack_us"`
	// ProjectedFinishUS is the §5 survival estimate (0 when unprofiled).
	ProjectedFinishUS int64 `json:"projected_finish_us,omitempty"`
	Survives          bool  `json:"survives"`
}

// roundView is the JSON shape of one planning round's record.
type roundView struct {
	Seq           uint64              `json:"seq"`
	AtUS          int64               `json:"at_us"`
	PlanLatencyUS float64             `json:"plan_latency_us"`
	Pending       int                 `json:"pending"`
	Running       int                 `json:"running"`
	FreeGPUs      int                 `json:"free_gpus"`
	Rejected      string              `json:"rejected,omitempty"`
	Decisions     []roundDecisionView `json:"decisions"`
}

// handleRounds serves the round-decision explainer: the last n planning
// rounds (default 32), oldest first, each with per-request degree, deadline
// slack and survival verdict — "why did request 42 get degree 2?" as an API.
func (a *API) handleRounds(w http.ResponseWriter, r *http.Request) {
	n := 32
	if s := r.URL.Query().Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			httpError(a.Logf, w, http.StatusBadRequest, "invalid n %q", s)
			return
		}
		n = v
	}
	recs := a.Driver.Telemetry().Rounds.Snapshot(n)
	out := make([]roundView, 0, len(recs))
	for _, rec := range recs {
		rv := roundView{
			Seq:           rec.Seq,
			AtUS:          rec.At.Microseconds(),
			PlanLatencyUS: float64(rec.PlanLatency.Nanoseconds()) / 1e3,
			Pending:       rec.Pending,
			Running:       rec.Running,
			FreeGPUs:      rec.FreeGPUs,
			Rejected:      rec.Rejected,
			Decisions:     make([]roundDecisionView, 0, len(rec.Decisions)),
		}
		for _, d := range rec.Decisions {
			dv := roundDecisionView{
				Request:           int(d.Request),
				Resolution:        d.Res.String(),
				Degree:            d.Degree,
				Steps:             d.Steps,
				BestEffort:        d.BestEffort,
				Batched:           d.Batched,
				DeadlineSlackUS:   d.DeadlineSlack.Microseconds(),
				ProjectedFinishUS: d.ProjectedFinish.Microseconds(),
				Survives:          d.Survives,
			}
			for _, g := range simgpu.Mask(d.Group).IDs() {
				dv.GPUs = append(dv.GPUs, int(g))
			}
			rv.Decisions = append(rv.Decisions, dv)
		}
		out = append(out, rv)
	}
	writeJSON(a.Logf, w, http.StatusOK, out)
}

// profileEntry is one row of the profile dump.
type profileEntry struct {
	Resolution string  `json:"resolution"`
	Degree     int     `json:"degree"`
	StepMS     float64 `json:"step_ms"`
	GPUSeconds float64 `json:"gpu_seconds_per_step"`
}

func (a *API) handleProfile(w http.ResponseWriter, _ *http.Request) {
	prof := a.Driver.Profile()
	var out []profileEntry
	for _, res := range prof.Resolutions() {
		for _, k := range prof.Degrees() {
			out = append(out, profileEntry{
				Resolution: res.String(),
				Degree:     k,
				StepMS:     float64(prof.StepTime(res, k).Microseconds()) / 1000,
				GPUSeconds: prof.GPUSeconds(res, k),
			})
		}
	}
	writeJSON(a.Logf, w, http.StatusOK, out)
}

// HashPrompt derives a structured prompt from free text deterministically:
// the leading words select a theme bucket, the remaining words hash into
// modifier ids, so reworded variants of one subject land near each other —
// a stand-in for CLIP's semantic neighborhood.
func HashPrompt(text string) workload.Prompt {
	fields := strings.Fields(strings.ToLower(text))
	subject := strings.Join(firstN(fields, 4), " ")
	theme := int(fnv32(subject) % 40)
	var mods []int
	for _, f := range fields[min(len(fields), 4):] {
		mods = append(mods, int(fnv32(f)%12))
		if len(mods) == 3 {
			break
		}
	}
	return workload.Prompt{Text: text, Theme: theme, Mods: mods}
}

func firstN(xs []string, n int) []string {
	if len(xs) < n {
		return xs
	}
	return xs[:n]
}

func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// logTo sends a serving-path diagnostic to logf (API.Logf, RouterAPI.Logf),
// or to log.Printf when logf is nil.
func logTo(logf func(format string, args ...any), format string, args ...any) {
	if logf != nil {
		logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// writeJSON emits one JSON response. Once WriteHeader has run the status
// line is on the wire: a mid-encode failure (client gone, broken pipe) must
// never be answered with a second header write (http.Error would trigger
// net/http's "superfluous WriteHeader" path) — it is logged to logf instead.
func writeJSON(logf func(format string, args ...any), w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		logTo(logf, "server: writing %d response failed mid-stream: %v", code, err)
	}
}

func httpError(logf func(format string, args ...any), w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(logf, w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
