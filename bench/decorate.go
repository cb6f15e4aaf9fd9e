package main

import (
	"net/http"
	"strings"
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/core"
	"tetriserve/internal/lifecycle"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/server"
	"tetriserve/internal/workload"
)

// tracedScheduler times every Plan call from outside. Embedding the concrete
// scheduler keeps the optional methods the control loop discovers by type
// assertion (Overhead, EagerAdmission, MaxCacheInterval) on the wrapper.
type tracedScheduler struct {
	*core.Scheduler
	tr *tracer
	// parent yields the open span Plan runs under (0 on a live shard, whose
	// loop goroutine plans on its own clock, not on behalf of one request).
	parent func() int
}

func (s *tracedScheduler) Plan(ctx *sched.PlanContext) []sched.Assignment {
	id := s.tr.begin(spPlan, s.parent(), len(ctx.Pending))
	plan := s.Scheduler.Plan(ctx)
	s.tr.end(id)
	return plan
}

// fullShard is what both of the repo's shard clients offer: the routing
// contract plus every optional extension the router API looks for.
type fullShard interface {
	server.ResizableShard
	server.TracedSubmitter
	server.StatsFetcher
	server.TimelineFetcher
}

// tracedShard times the router's calls into one shard and parks each open
// span where the shard-side handler span can find its parent.
type tracedShard struct {
	inner fullShard
	tr    *tracer
	index int
}

var _ fullShard = (*tracedShard)(nil)

func (s *tracedShard) call(name spanName, class int, fn func()) {
	id := s.tr.begin(name, s.tr.slot(&s.tr.routerOpen[class]), s.index)
	s.tr.setSlot(&s.tr.remoteOpen[s.index][class], id)
	fn()
	s.tr.setSlot(&s.tr.remoteOpen[s.index][class], 0)
	s.tr.end(id)
}

func (s *tracedShard) Name() string { return s.inner.Name() }

func (s *tracedShard) ProbeFeasibility(res model.Resolution, steps int, slo time.Duration) (f control.Feasibility, err error) {
	s.call(spRemoteProbe, classWrite, func() { f, err = s.inner.ProbeFeasibility(res, steps, slo) })
	return f, err
}

func (s *tracedShard) Submit(p workload.Prompt, res model.Resolution, slo time.Duration) (j server.Job, err error) {
	s.call(spRemoteSubmit, classWrite, func() { j, err = s.inner.Submit(p, res, slo) })
	return j, err
}

func (s *tracedShard) SubmitTraced(p workload.Prompt, res model.Resolution, slo time.Duration, traceID, tenant string) (j server.Job, err error) {
	s.call(spRemoteSubmit, classWrite, func() { j, err = s.inner.SubmitTraced(p, res, slo, traceID, tenant) })
	return j, err
}

func (s *tracedShard) FetchStats() (st server.Stats, err error) {
	s.call(spRemoteStats, classRead, func() { st, err = s.inner.FetchStats() })
	return st, err
}

func (s *tracedShard) FetchTimeline(key string) (tl *lifecycle.Timeline, ok bool, err error) {
	s.call(spRemoteTimeline, classRead, func() { tl, ok, err = s.inner.FetchTimeline(key) })
	return tl, ok, err
}

func (s *tracedShard) Resize(n int) (err error) {
	s.call(spRemoteResize, classRead, func() { err = s.inner.Resize(n) })
	return err
}

// statusWriter remembers the response code for the handler span.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// routeOf classifies a request by the route the workloads hit.
func routeOf(r *http.Request) spanName {
	switch p := r.URL.Path; {
	case p == "/v1/generate", p == "/v1/images/generations":
		return routeGenerate
	case p == "/v1/probe":
		return routeProbe
	case strings.HasPrefix(p, "/v1/requests/"):
		return routeTimeline
	case p == "/v1/stats":
		return routeStats
	case p == "/v1/fleet":
		return routeFleet
	case p == "/metrics":
		return routeMetrics
	}
	return routeOther
}

// tracedHandler times every request a router (shard < 0) or shard handler
// serves; the span's Arg is the response status. Router spans are roots;
// shard spans hang off the router's open remote call to that shard, or are
// roots when the generator called the shard directly.
func tracedHandler(tr *tracer, shard int, h http.Handler) http.Handler {
	layer := spShard
	if shard < 0 {
		layer = spRouter
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		class := classRead
		if r.Method == http.MethodPost {
			class = classWrite
		}
		parent := 0
		if shard >= 0 {
			parent = tr.slot(&tr.remoteOpen[shard][class])
		}
		id := tr.begin(layer+routeOf(r), parent, 0)
		if shard < 0 {
			tr.setSlot(&tr.routerOpen[class], id)
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)
		if shard < 0 {
			tr.setSlot(&tr.routerOpen[class], 0)
		}
		tr.end(id)
		tr.setArg(id, sw.status)
	})
}

// tracedHooks times every callback of one observer under the open sim.run
// span, so the loop's self time excludes what its observers cost.
func tracedHooks(tr *tracer, name spanName, h control.Hooks) control.Hooks {
	return control.Hooks{
		Arriving:     time2(tr, name, h.Arriving),
		Admitted:     time2(tr, name, h.Admitted),
		Started:      time2(tr, name, h.Started),
		Requeued:     time3(tr, name, h.Requeued),
		StepsElided:  time3(tr, name, h.StepsElided),
		Finished:     time2(tr, name, h.Finished),
		Dropped:      time2(tr, name, h.Dropped),
		PlanRejected: time2(tr, name, h.PlanRejected),
		StartFailed:  time2(tr, name, h.StartFailed),
		PlanComputed: time3(tr, name, h.PlanComputed),
		RoundTick:    time2(tr, name, h.RoundTick),
		Planned:      time3(tr, name, h.Planned),
		RunStarted:   time2(tr, name, h.RunStarted),
		RunFinished:  time2(tr, name, h.RunFinished),
		RunAborted:   time3(tr, name, h.RunAborted),
		RunPreempted: time3(tr, name, h.RunPreempted),
		Resized:      time3(tr, name, h.Resized),
		GPUFailed:    time2(tr, name, h.GPUFailed),
		GPURecovered: time2(tr, name, h.GPURecovered),
	}
}

func time2[A, B any](tr *tracer, name spanName, f func(A, B)) func(A, B) {
	if f == nil {
		return nil
	}
	return func(a A, b B) {
		id := tr.begin(name, tr.simRoot, 0)
		f(a, b)
		tr.end(id)
	}
}

func time3[A, B, C any](tr *tracer, name spanName, f func(A, B, C)) func(A, B, C) {
	if f == nil {
		return nil
	}
	return func(a A, b B, c C) {
		id := tr.begin(name, tr.simRoot, 0)
		f(a, b, c)
		tr.end(id)
	}
}
