// Package router is the fleet-scale admission and routing tier: it fronts N
// independent control-plane shards (each a control.Loop with its own
// topology, profile and scheduler) and decides, per submission, which shard
// — if any — should serve the request.
//
// The router consults the cost model, not queue depth: every shard exposes
// the control plane's read-only feasibility probe (projected queue-aware
// finish time vs. deadline, control.Feasibility). An in-process shard
// answers on its loop goroutine; a remote shard's client answers from the
// load digest (control.Digest) its shard streams, exact until the shard's
// next loop event, and probes over HTTP only when it has no current digest.
// The router
//
//   - routes to the winnable shard with the most deadline slack (ties break
//     to the lowest shard index, keeping decisions deterministic);
//   - rejects early when no shard can win, with a Retry-After hint derived
//     from how late the least-loaded shard would land — admitting such a
//     request would burn GPU·seconds on a guaranteed SLO miss (the paper's
//     deadline-aware allocation argument, applied at the fleet boundary);
//   - sheds per-tenant under overload: when the fleet's recent admitted
//     GPU·seconds exceed its capacity, tenants consuming strictly more than
//     their weight-proportional fair share are rejected first (weighted
//     fair admission), so a bursting tenant cannot starve the rest.
//
// The router holds no scheduling state of its own — shards stay fully
// independent — and is safe for concurrent use.
package router

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/model"
)

// Shard is one control-plane pool the router can place requests on. Probe
// implementations must be safe to call from the router's goroutine(s): the
// in-process driver funnels the call onto its loop goroutine, the sim
// harness is single-threaded, and remote shards answer from their streamed
// digest or over HTTP.
type Shard interface {
	Name() string
	ProbeFeasibility(res model.Resolution, steps int, slo time.Duration) (control.Feasibility, error)
}

// Reason classifies a routing decision.
type Reason string

// Decision reasons.
const (
	// ReasonRouted: accepted and assigned to Decision.Shard.
	ReasonRouted Reason = "routed"
	// ReasonInfeasible: no shard projects a deadline win → early reject
	// (HTTP 429 with Retry-After).
	ReasonInfeasible Reason = "infeasible"
	// ReasonShed: a shard could win, but the fleet is overloaded and the
	// tenant is over its weighted fair share → reject (HTTP 429).
	ReasonShed Reason = "shed"
	// ReasonUnknown: no shard's profile knows the resolution → client error
	// (HTTP 400), not a capacity signal.
	ReasonUnknown Reason = "unknown_resolution"
)

// ProbeResult is one shard's answer, kept on the decision for explainers.
type ProbeResult struct {
	Shard string
	Feas  control.Feasibility
	// Err is the probe error, if any ("" otherwise); an erroring shard is
	// simply not a candidate.
	Err string
}

// Decision is the full routing verdict for one submission.
type Decision struct {
	// At is the router's shard clock at the decision (see Route).
	At     time.Duration
	Tenant string
	Res    model.Resolution
	Steps  int
	SLO    time.Duration
	// Accepted is true only for ReasonRouted; Shard/ShardName identify the
	// chosen pool then (Shard is -1 otherwise).
	Accepted  bool
	Reason    Reason
	Shard     int
	ShardName string
	// TraceID is the fleet-wide trace ID minted on acceptance, "t-<n>" for
	// the n-th admission ("" otherwise).
	TraceID string
	// Slack is the chosen shard's projected deadline slack (accepted), or
	// the best (least negative) slack across shards (infeasible).
	Slack time.Duration
	// CacheAssisted marks an acceptance that relied on the chosen shard's
	// step-cache projection: no shard could win the deadline outright, but
	// this one can if its scheduler spends quality budget on cached steps.
	// Always false when every shard is cache-oblivious.
	CacheAssisted bool
	// RetryAfter is the client back-off hint for rejections.
	RetryAfter time.Duration
	// Probes holds every shard's projection, in shard order.
	Probes []ProbeResult
}

// Config tunes the router.
type Config struct {
	// TenantWeights are the weighted-fair admission shares; tenants absent
	// from the map weigh 1. Weights are relative, not normalized.
	TenantWeights map[string]float64
	// Observer, when set, receives every decision synchronously (the
	// telemetry plane's attachment point). It must not call back into the
	// router.
	Observer func(Decision)
}

// Admission constants: one value each in use outside tests (DESIGN §6).
const (
	fairnessWindow = 60 * time.Second // sliding window (shard clock) of admitted GPU·seconds
	overloadFactor = 0.85             // overloaded above overloadFactor × Σ healthy GPUs × window
	minRetryAfter  = time.Second      // floor of the Retry-After hint
)

// tenantLedger accumulates one tenant's sliding-window admissions.
type tenantLedger struct {
	admitted   int
	rejected   int
	shed       int
	gpuSeconds float64 // within the current window
}

// fairTenant is one tenant of the fair-share sums, configured or seen:
// its ledger is nil until its first decision.
type fairTenant struct {
	name   string
	ledger *tenantLedger
}

// admission is one ledger entry, pruned once it ages out of the window.
type admission struct {
	at         time.Duration
	tenant     string
	gpuSeconds float64
}

// Router routes submissions across shards. Build with New; safe for
// concurrent use.
type Router struct {
	cfg    Config
	shards []Shard

	mu          sync.Mutex
	now         time.Duration // latest probed shard clock
	ledger      []admission   // FIFO within the fairness window
	tenants     map[string]*tenantLedger
	fair        []fairTenant // configured and ledger tenants, sorted by name
	shardRouted []int
	stats       Stats
}

// New builds a router over the given shards (at least one required).
func New(cfg Config, shards []Shard) (*Router, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("router: at least one shard is required")
	}
	r := &Router{
		cfg:         cfg,
		shards:      shards,
		tenants:     map[string]*tenantLedger{},
		shardRouted: make([]int, len(shards)),
	}
	for name := range cfg.TenantWeights {
		r.fairTenant(name)
	}
	return r, nil
}

// fairTenant returns the tenant's fair-share entry, inserted in name order
// if new.
func (r *Router) fairTenant(name string) *fairTenant {
	i, ok := slices.BinarySearchFunc(r.fair, name, func(f fairTenant, name string) int {
		return strings.Compare(f.name, name)
	})
	if !ok {
		r.fair = slices.Insert(r.fair, i, fairTenant{name: name})
	}
	return &r.fair[i]
}

// Route decides where (whether) to place one submission; steps ≤ 0 defaults
// to each shard's model step count. The fairness window runs on the shard
// clock: the latest Feasibility.Now any probe has reported, so the window and
// the GPU·seconds it holds share one time base, and it never moves backwards.
// In simulation every shard reads the one virtual clock; online it is the
// furthest-ahead shard loop clock.
func (r *Router) Route(tenant string, res model.Resolution, steps int, slo time.Duration) Decision {
	dec := Decision{
		Tenant: tenant,
		Res:    res,
		Steps:  steps,
		SLO:    slo,
		Shard:  -1,
		Probes: make([]ProbeResult, 0, len(r.shards)),
	}

	// Probe every shard; feasibility is cheap (a read-only walk of tracked
	// state) and the explainer wants the full picture either way.
	best, bestSlack := -1, time.Duration(0)
	bestCached, bestCachedSlack := -1, time.Duration(0)
	worstCase, worstSet := time.Duration(0), false
	healthy, known := 0, false
	var service float64
	var probed time.Duration
	for i, s := range r.shards {
		f, err := s.ProbeFeasibility(res, steps, slo)
		if err != nil {
			dec.Probes = append(dec.Probes, ProbeResult{Shard: s.Name(), Feas: f, Err: err.Error()})
			continue
		}
		dec.Probes = append(dec.Probes, ProbeResult{Shard: s.Name(), Feas: f})
		known = true
		probed = max(probed, f.Now)
		healthy += f.HealthyGPUs
		if f.ServiceGPUSeconds > service {
			service = f.ServiceGPUSeconds
		}
		if f.Winnable && (best < 0 || f.Slack > bestSlack) {
			best, bestSlack = i, f.Slack
		}
		// Second tier: shards that only win via their step-cache projection.
		// Preferred less than outright winners (approximation costs quality),
		// consulted only when no shard wins plain. Cache-oblivious shards
		// report CachedWinnable == Winnable, so this tier stays empty — and
		// routing stays bit-identical — unless a shard enables the cache.
		if !f.Winnable && f.CachedWinnable {
			if cs := f.Deadline - f.CachedFinish; bestCached < 0 || cs > bestCachedSlack {
				bestCached, bestCachedSlack = i, cs
			}
		}
		// lateness = −Slack; track the smallest across shards for the
		// Retry-After hint ("come back once the least-loaded queue has
		// drained by this much").
		if !worstSet || -f.Slack < worstCase {
			worstCase, worstSet = -f.Slack, true
		}
	}

	if best < 0 && bestCached >= 0 {
		best, bestSlack = bestCached, bestCachedSlack
		dec.CacheAssisted = true
	}

	switch {
	case !known:
		dec.Reason = ReasonUnknown
	case best < 0:
		dec.Reason = ReasonInfeasible
		dec.Slack = -worstCase
		dec.RetryAfter = max(worstCase, minRetryAfter)
	default:
		dec.Reason = ReasonRouted
		dec.Accepted = true
		dec.Shard = best
		dec.ShardName = r.shards[best].Name()
		dec.Slack = bestSlack
	}

	r.mu.Lock()
	r.now = max(r.now, probed)
	dec.At = r.now
	r.prune(r.now)
	if dec.Accepted && r.overloaded(r.now, healthy) && r.overFairShare(tenant) {
		dec.Accepted = false
		dec.Reason = ReasonShed
		dec.Shard = -1
		dec.ShardName = ""
		dec.CacheAssisted = false
		dec.RetryAfter = minRetryAfter
	}
	r.record(&dec, service)
	r.mu.Unlock()

	if r.cfg.Observer != nil {
		r.cfg.Observer(dec)
	}
	return dec
}

// prune drops ledger entries older than the fairness window (mu held).
func (r *Router) prune(now time.Duration) {
	cut := now - fairnessWindow
	i := 0
	for ; i < len(r.ledger) && r.ledger[i].at < cut; i++ {
		e := r.ledger[i]
		if t := r.tenants[e.tenant]; t != nil {
			t.gpuSeconds -= e.gpuSeconds
		}
	}
	if i > 0 {
		r.ledger = append(r.ledger[:0], r.ledger[i:]...)
	}
}

// overloaded reports whether windowed admissions exceed fleet capacity
// (mu held). healthy is the probe-time healthy GPU total across shards.
func (r *Router) overloaded(now time.Duration, healthy int) bool {
	window := fairnessWindow
	if now < window {
		window = max(now, time.Second)
	}
	capacity := overloadFactor * float64(healthy) * window.Seconds()
	var admitted float64
	for _, e := range r.ledger {
		admitted += e.gpuSeconds
	}
	return admitted > capacity
}

// overFairShare reports whether tenant consumes strictly more than its
// weight-proportional share of windowed admissions (mu held). Tenants at or
// under their share are never shed — overload alone cannot starve a tenant
// that stayed within its weight. Shares are computed over the union of
// configured tenants and tenants active in the window: a configured tenant's
// reservation holds even while it is idle, so a burster cannot claim the
// whole fleet just because no one else is submitting right now.
func (r *Router) overFairShare(tenant string) bool {
	total, weights := r.fairSums()
	t := r.tenants[tenant]
	if total <= 0 || t == nil || t.gpuSeconds <= 0 {
		return false
	}
	fair := r.weight(tenant) / weights
	return t.gpuSeconds/total > fair
}

// fairSums returns the windowed GPU·seconds of the active tenants and the
// weights of the tenants a share is computed over (mu held). Both are summed
// in tenant-name order, so identical runs shed at the same boundary.
func (r *Router) fairSums() (total, weights float64) {
	for i := range r.fair {
		f := &r.fair[i]
		if f.ledger != nil && f.ledger.gpuSeconds > 0 {
			total += f.ledger.gpuSeconds
			weights += r.weight(f.name)
		} else if w := r.cfg.TenantWeights[f.name]; w > 0 {
			weights += w
		}
	}
	return total, weights
}

func (r *Router) weight(tenant string) float64 {
	if w, ok := r.cfg.TenantWeights[tenant]; ok && w > 0 {
		return w
	}
	return 1
}

// record updates the ledger and counters for one decision and mints an
// admitted one's trace ID (mu held).
func (r *Router) record(dec *Decision, gpuSeconds float64) {
	t := r.tenants[dec.Tenant]
	if t == nil {
		t = &tenantLedger{}
		r.tenants[dec.Tenant] = t
		r.fairTenant(dec.Tenant).ledger = t
	}
	r.stats.Decisions++
	switch dec.Reason {
	case ReasonRouted:
		r.stats.Routed++
		dec.TraceID = "t-" + strconv.Itoa(r.stats.Routed)
		r.shardRouted[dec.Shard]++
		t.admitted++
		t.gpuSeconds += gpuSeconds
		r.ledger = append(r.ledger, admission{at: dec.At, tenant: dec.Tenant, gpuSeconds: gpuSeconds})
	case ReasonInfeasible:
		r.stats.Infeasible++
		t.rejected++
	case ReasonShed:
		r.stats.Shed++
		t.rejected++
		t.shed++
	case ReasonUnknown:
		r.stats.Unknown++
	}
}

// ShardStats summarizes one shard's share of routed traffic.
type ShardStats struct {
	Name   string `json:"name"`
	Routed int    `json:"routed"`
}

// TenantStats summarizes one tenant's admission record.
type TenantStats struct {
	Tenant string `json:"tenant"`
	// Admitted/Rejected count routing decisions; Shed counts the subset of
	// rejections from weighted-fair shedding (vs. fleet infeasibility).
	Admitted int `json:"admitted"`
	Rejected int `json:"rejected"`
	Shed     int `json:"shed"`
	// WindowGPUSeconds is the tenant's admitted GPU·seconds still inside
	// the fairness window.
	WindowGPUSeconds float64 `json:"window_gpu_seconds"`
}

// Stats is the router's aggregate view.
type Stats struct {
	Decisions  int `json:"decisions"`
	Routed     int `json:"routed"`
	Infeasible int `json:"infeasible"`
	Shed       int `json:"shed"`
	Unknown    int `json:"unknown_resolution"`
	// EarlyRejectRate is (Infeasible+Shed)/Decisions.
	EarlyRejectRate float64 `json:"early_reject_rate"`
	// ProbeCacheHits/ProbeCacheMisses always read 0 (there is no probe
	// cache); kept only because bench/sim.go reads them for a ledger row
	// that a benchmark-archetype PR will drop.
	ProbeCacheHits   int           `json:"probe_cache_hits,omitempty"`
	ProbeCacheMisses int           `json:"probe_cache_misses,omitempty"`
	Shards           []ShardStats  `json:"shards,omitempty"`
	Tenants          []TenantStats `json:"tenants,omitempty"`
}

// Stats returns a point-in-time aggregate snapshot.
func (r *Router) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats
	if st.Decisions > 0 {
		st.EarlyRejectRate = float64(st.Infeasible+st.Shed) / float64(st.Decisions)
	}
	st.Shards = make([]ShardStats, len(r.shards))
	for i, s := range r.shards {
		st.Shards[i] = ShardStats{Name: s.Name(), Routed: r.shardRouted[i]}
	}
	names := make([]string, 0, len(r.tenants))
	for name := range r.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := r.tenants[name]
		st.Tenants = append(st.Tenants, TenantStats{
			Tenant:           name,
			Admitted:         t.admitted,
			Rejected:         t.rejected,
			Shed:             t.shed,
			WindowGPUSeconds: t.gpuSeconds,
		})
	}
	return st
}
