package control

import (
	"fmt"
	"slices"
	"time"

	"tetriserve/internal/model"
	"tetriserve/internal/sched"
)

// Feasibility is the read-only deadline projection the admission router
// consults before placing a request on a loop: given the loop's current
// backlog and health, when would a hypothetical request of this shape
// plausibly start and finish, and can it still win its SLO?
//
// The projection is a fluid-model bound, deliberately built from the same
// quantities the scheduler itself reasons with (the offline profile's
// T(res,k) table, Algorithm 1's T_min survival bound) and nothing else:
//
//   - queue wait: the backlog's cheapest-possible GPU·seconds (each tracked
//     request costed at its GPU-hour-optimal degree, min_k k·T(res,k))
//     spread over the healthy devices;
//   - boundary wait: one τ when a round-based loop cannot admit eagerly
//     (eager admission off or no free GPUs), zero otherwise — mirroring the
//     loop's own arrival-path planning condition;
//   - service: remaining steps at the fastest profiled per-step time
//     (T_i^min, the same optimistic bound DefinitelyLate uses), plus the
//     per-block dispatch overhead.
//
// VAE decode is excluded, like the round explainer's survival verdict — the
// decode queue is execution-side state the control plane does not project.
// The probe is therefore optimistic: Winnable == false is a sound
// early-reject signal ("cannot win even under best-case packing"), while
// Winnable == true is a forecast, not a guarantee.
type Feasibility struct {
	// Now is the loop clock at probe time; Deadline is Now + the probed SLO.
	Now      time.Duration
	Deadline time.Duration
	// ProjectedStart/ProjectedFinish bound the hypothetical request's
	// execution window under the fluid model.
	ProjectedStart  time.Duration
	ProjectedFinish time.Duration
	// Winnable reports ProjectedFinish ≤ Deadline.
	Winnable bool
	// Slack is Deadline − ProjectedFinish (negative when not winnable: how
	// late the request would land at best).
	Slack time.Duration
	// QueueGPUSeconds is the tracked backlog's cheapest-possible GPU·seconds;
	// ServiceGPUSeconds is the probed request's own cheapest cost (the
	// router's fair-share ledger currency).
	QueueGPUSeconds   float64
	ServiceGPUSeconds float64
	// Pending/Running count tracked requests; HealthyGPUs/FreeGPUs describe
	// capacity at probe time.
	Pending     int
	Running     int
	HealthyGPUs int
	FreeGPUs    int
	// MinStepTime and MinStepDegree are the profile's fastest per-step
	// latency for the probed resolution and the degree achieving it.
	MinStepTime   time.Duration
	MinStepDegree int
	// MaxCacheInterval is the shard scheduler's step-cache ceiling (1 when
	// the scheduler does not expose or enable the cache dimension). When it
	// exceeds 1, CachedFinish projects the best cache-assisted completion —
	// every approximable step (outside the protected first/last
	// sched.CacheProtectedSteps) served at the discounted cost — and
	// CachedWinnable reports CachedFinish ≤ Deadline. With caching off both
	// mirror ProjectedFinish/Winnable exactly, so consumers that read the
	// cached projection behave bit-identically on cache-oblivious shards.
	MaxCacheInterval int
	CachedFinish     time.Duration
	CachedWinnable   bool
}

// ProbeFeasibility projects deadline feasibility for a hypothetical request
// (res, steps, slo) against the loop's current state without mutating any of
// it: no tracker insert, no scheduler invocation, no engine transition — the
// planner's scratch, the decode queue, and the pending order are all
// untouched, so probing is invisible to subsequent plans (the property the
// router's no-mutation test pins down).
//
// steps ≤ 0 defaults to the model's step count. Unknown resolutions return
// an error: feasibility of an uncalibrated shape is undefined, and the
// router maps this to a client error rather than a 429.
//
// Like every other Loop method, ProbeFeasibility must run on the goroutine
// that owns the loop (the driver exposes it via a channel round-trip). It is
// Digest().Project for one class.
func (l *Loop) ProbeFeasibility(res model.Resolution, steps int, slo time.Duration) (Feasibility, error) {
	return l.Digest().Project(ProbeClass{Res: res, Steps: steps, SLO: slo})
}

// ProbeClass is one hypothetical request shape for ProbeClasses; Steps ≤ 0
// defaults to the model's step count.
type ProbeClass struct {
	Res   model.Resolution
	Steps int
	SLO   time.Duration
}

// ProbeClasses projects feasibility for several request shapes at the same
// instant: out[i] is field-for-field what ProbeFeasibility returns for
// classes[i], but the backlog — the part every class shares — is walked once
// rather than once per class. out must be at least as long as classes. A
// class whose resolution is not profiled is an error, and then nothing is
// filled. Like ProbeFeasibility it mutates no loop state.
func (l *Loop) ProbeClasses(classes []ProbeClass, out []Feasibility) error {
	d := l.Digest()
	for i, c := range classes {
		f, err := d.Project(c)
		if err != nil {
			clear(out[:i])
			return err
		}
		out[i] = f
	}
	return nil
}

// Digest is everything the feasibility projection reads from a loop, taken
// at one instant: Project turns it into the Feasibility ProbeFeasibility
// would have returned then, for any request shape. Apart from Now, every
// field changes only at a loop event — an arrival, a dispatch or block
// completion, a fault or a resize — so a digest taken after the last event
// projects exactly until the next one, with Now moved forward.
//
// A digest is a plain value: it can cross goroutines and the wire (the
// shard's GET /v1/digest stream), and its Resolutions table is never
// mutated after the loop hands it out.
type Digest struct {
	Now time.Duration `json:"now_ns"`
	// HealthyGPUs and FreeGPUs describe capacity; Pending and Running count
	// tracked requests.
	HealthyGPUs int `json:"healthy_gpus"`
	FreeGPUs    int `json:"free_gpus"`
	Pending     int `json:"pending"`
	Running     int `json:"running"`
	// QueueGPUSeconds is the tracked backlog's cheapest-possible GPU·seconds
	// (0 on a fully failed pool, whose projection never reads it).
	QueueGPUSeconds float64 `json:"queue_gpu_seconds"`
	// BoundaryWait is the round a new arrival waits out before it can be
	// planned: τ when the loop is round-based and cannot admit eagerly, 0
	// otherwise. DispatchDelay is the per-block control-plane latency.
	BoundaryWait  time.Duration `json:"boundary_wait_ns"`
	DispatchDelay time.Duration `json:"dispatch_delay_ns"`
	// MaxCacheInterval is the scheduler's step-cache ceiling (1 = off) and
	// CachedStepRelCost the profile's γ.
	MaxCacheInterval  int     `json:"max_cache_interval"`
	CachedStepRelCost float64 `json:"cached_step_rel_cost"`
	// DefaultSteps replaces a class's Steps ≤ 0.
	DefaultSteps int `json:"default_steps"`
	// Resolutions holds one row per profiled resolution, restricted to
	// degrees within HealthyGPUs.
	Resolutions []ResolutionDigest `json:"resolutions"`
}

// ResolutionDigest is one profiled resolution's per-step bounds over the
// degrees a loop can currently form.
type ResolutionDigest struct {
	Width  int `json:"width"`
	Height int `json:"height"`
	// MinStepTime and MinStepDegree are the fastest per-step latency and the
	// degree achieving it; MinGPUSeconds is min_k k·T(res,k).
	MinStepTime   time.Duration `json:"min_step_ns"`
	MinStepDegree int           `json:"min_step_degree"`
	MinGPUSeconds float64       `json:"min_gpu_seconds"`
}

// Digest snapshots the loop's projection inputs. It walks the backlog once
// and allocates nothing unless the healthy GPU count or the profile changed
// since the last call. Like every Loop method it must run on the goroutine
// that owns the loop.
func (l *Loop) Digest() Digest {
	healthy := l.eng.HealthyGPUs()
	free := l.eng.Free()
	d := Digest{
		Now:               l.clk.Now(),
		HealthyGPUs:       healthy,
		FreeGPUs:          free.Count(),
		Pending:           l.pending(),
		Running:           len(l.running),
		DispatchDelay:     l.dispatchDelay(),
		MaxCacheInterval:  l.maxCacheInterval(),
		CachedStepRelCost: l.cfg.Profile.CachedStepRelCost(),
		DefaultSteps:      l.cfg.Model.DefaultSteps,
		Resolutions:       l.resolutionDigests(healthy),
	}
	// Backlog: every tracked, unfinished request costed at its cheapest
	// profiled degree, pending ones summed in (arrival, ID) order across
	// queue and late; running requests are counted by their remaining steps
	// only. A fully failed pool skips the walk: no projection reads it.
	if healthy > 0 {
		w := l.walk()
		for st, _, _ := w.next(); st != nil; st, _, _ = w.next() {
			d.QueueGPUSeconds += float64(st.Remaining) * l.backlogGPUSeconds(d.Resolutions, st.Req.Res, healthy)
		}
		for _, st := range l.running {
			if st.Remaining <= 0 {
				continue
			}
			d.QueueGPUSeconds += float64(st.Remaining) * l.backlogGPUSeconds(d.Resolutions, st.Req.Res, healthy)
		}
	}
	// Boundary wait mirrors the arrival path's planning condition: a
	// non-round-based loop plans on every arrival, and an eager round-based
	// loop plans immediately whenever a GPU is free; otherwise the request
	// waits out the current round.
	if l.roundBased && !(l.eager && free != 0) {
		d.BoundaryWait = l.tau
	}
	return d
}

// resolutionDigests returns the per-resolution table for healthy usable
// GPUs, rebuilt only when the healthy count or the profile version changed.
// A rebuild allocates a fresh slice: digests handed out earlier keep theirs.
func (l *Loop) resolutionDigests(healthy int) []ResolutionDigest {
	prof := l.cfg.Profile
	if l.resTable != nil && l.resHealthy == healthy && l.resVersion == prof.Version() {
		return l.resTable
	}
	var table []ResolutionDigest
	for _, res := range prof.Resolutions() {
		if !prof.Has(res) {
			continue
		}
		t, k := l.minStepTimeWithin(res, healthy)
		table = append(table, ResolutionDigest{
			Width: res.W, Height: res.H,
			MinStepTime: t, MinStepDegree: k,
			MinGPUSeconds: l.minGPUSecondsWithin(res, healthy),
		})
	}
	l.resTable, l.resHealthy, l.resVersion = table, healthy, prof.Version()
	return table
}

// backlogGPUSeconds is minGPUSecondsWithin(res, healthy) read from the
// current table; a tracked request's resolution is always profiled, so the
// direct computation is only a fallback.
func (l *Loop) backlogGPUSeconds(table []ResolutionDigest, res model.Resolution, healthy int) float64 {
	if r, ok := lookupResolution(table, res); ok {
		return r.MinGPUSeconds
	}
	return l.minGPUSecondsWithin(res, healthy)
}

func lookupResolution(table []ResolutionDigest, res model.Resolution) (ResolutionDigest, bool) {
	for _, r := range table {
		if r.Width == res.W && r.Height == res.H {
			return r, true
		}
	}
	return ResolutionDigest{}, false
}

// SameLoad reports whether d and o project identically at the same instant:
// every field but Now agrees.
func (d Digest) SameLoad(o Digest) bool {
	return d.HealthyGPUs == o.HealthyGPUs && d.FreeGPUs == o.FreeGPUs &&
		d.Pending == o.Pending && d.Running == o.Running &&
		d.QueueGPUSeconds == o.QueueGPUSeconds &&
		d.BoundaryWait == o.BoundaryWait && d.DispatchDelay == o.DispatchDelay &&
		d.MaxCacheInterval == o.MaxCacheInterval && d.CachedStepRelCost == o.CachedStepRelCost &&
		d.DefaultSteps == o.DefaultSteps && slices.Equal(d.Resolutions, o.Resolutions)
}

// Project is the feasibility projection for one request shape: the
// Feasibility a probe at d.Now returns. It fails for a resolution the
// digest has no row for.
func (d Digest) Project(c ProbeClass) (Feasibility, error) {
	r, ok := lookupResolution(d.Resolutions, c.Res)
	if !ok {
		return Feasibility{}, fmt.Errorf("control: %v not in profile", c.Res)
	}
	steps := c.Steps
	if steps <= 0 {
		steps = d.DefaultSteps
	}
	f := Feasibility{
		Now:              d.Now,
		Deadline:         d.Now + c.SLO,
		HealthyGPUs:      d.HealthyGPUs,
		FreeGPUs:         d.FreeGPUs,
		Running:          d.Running,
		MaxCacheInterval: d.MaxCacheInterval,
		// Degrees the shard cannot form (profile calibrated on the full
		// node, capacity elastically shrunk below it) are already out of
		// the row, or a 2-GPU shard would promise 8-way step times it can
		// never run.
		MinStepTime:       r.MinStepTime,
		MinStepDegree:     r.MinStepDegree,
		ServiceGPUSeconds: float64(steps) * r.MinGPUSeconds,
	}
	if d.HealthyGPUs <= 0 {
		// A fully failed pool can never win; pin the projection at the
		// deadline horizon so Slack reports "late by the whole budget".
		f.ProjectedStart = f.Deadline
		f.ProjectedFinish = f.Deadline + c.SLO
		f.Slack = f.Deadline - f.ProjectedFinish
		f.CachedFinish = f.ProjectedFinish
		return f, nil
	}
	f.Pending = d.Pending
	f.QueueGPUSeconds = d.QueueGPUSeconds
	queueWait := time.Duration(d.QueueGPUSeconds / float64(d.HealthyGPUs) * float64(time.Second))

	f.ProjectedStart = d.Now + d.BoundaryWait + queueWait
	f.ProjectedFinish = f.ProjectedStart + time.Duration(steps)*f.MinStepTime + d.DispatchDelay
	f.Winnable = f.ProjectedFinish <= f.Deadline
	f.Slack = f.Deadline - f.ProjectedFinish

	// Cache-assisted projection: the same fluid bound with every
	// approximable step (outside the protected first/last N, ignoring any
	// per-request budget — the probed request is hypothetical and has none
	// yet) served at the γ-discounted cost. With caching off this collapses
	// to the plain projection exactly (a = 0 path is not taken; the fields
	// are copied).
	f.CachedFinish = f.ProjectedFinish
	f.CachedWinnable = f.Winnable
	if f.MaxCacheInterval > 1 {
		a := sched.ApproxSteps(steps-2*sched.CacheProtectedSteps, f.MaxCacheInterval)
		if a > 0 {
			service := time.Duration(steps-a)*f.MinStepTime +
				time.Duration(float64(a)*d.CachedStepRelCost*float64(f.MinStepTime))
			f.CachedFinish = f.ProjectedStart + service + d.DispatchDelay
			f.CachedWinnable = f.CachedFinish <= f.Deadline
		}
	}
	return f, nil
}

// maxCacheInterval reports the scheduler's step-cache ceiling via an optional
// interface assertion (core.Scheduler exposes MaxCacheInterval; baselines do
// not and probe as cache-oblivious).
func (l *Loop) maxCacheInterval() int {
	if s, ok := l.cfg.Scheduler.(interface{ MaxCacheInterval() int }); ok {
		if c := s.MaxCacheInterval(); c > 1 {
			return c
		}
	}
	return 1
}

// minGPUSecondsWithin is the cheapest profiled per-step GPU·seconds for res
// over degrees the shard can actually form (k ≤ maxK) — min_k k·T(res,k),
// the §4.2.1 GPU-hour floor a perfectly packed schedule approaches. When no
// profiled degree fits (maxK below the smallest calibrated degree) the
// smallest degree is used so the projection stays finite and deterministic.
func (l *Loop) minGPUSecondsWithin(res model.Resolution, maxK int) float64 {
	best, found := 0.0, false
	for i, k := range l.cfg.Profile.Degrees() {
		if k > maxK && i > 0 {
			break // degrees are sorted ascending; keep i==0 as the fallback
		}
		if g := l.cfg.Profile.GPUSeconds(res, k); !found || g < best {
			best = g
			found = true
		}
	}
	return best
}

// minStepTimeWithin is Profile.MinStepTime restricted to degrees ≤ maxK,
// with the same smallest-degree fallback as minGPUSecondsWithin.
func (l *Loop) minStepTimeWithin(res model.Resolution, maxK int) (time.Duration, int) {
	var bestT time.Duration
	bestK, found := 0, false
	for i, k := range l.cfg.Profile.Degrees() {
		if k > maxK && i > 0 {
			break
		}
		if t := l.cfg.Profile.StepTime(res, k); !found || t < bestT {
			bestT, bestK = t, k
			found = true
		}
	}
	return bestT, bestK
}
