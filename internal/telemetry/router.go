package telemetry

import (
	"sync"

	"tetriserve/internal/router"
)

// RouterPlane is the routing tier's telemetry: a metrics registry slice
// (decisions by outcome, routed traffic by shard, shed traffic by tenant)
// plus a bounded ring of full routing decisions — the "why did this request
// land on shard 2 / get a 429?" explainer, the router-level sibling of the
// round-decision log.
//
// Attach by passing Observe as router.Config.Observer. Observe runs
// synchronously on whatever goroutine routes (HTTP handlers online, the
// harness goroutine in simulation); all state is mutex-guarded.
type RouterPlane struct {
	Registry *Registry
	Log      *RouterLog

	decisions   *CounterVec
	byReason    map[router.Reason]*Counter
	routedShard *CounterVec
	shedTenant  *CounterVec

	mu          sync.Mutex
	shardCells  map[string]*Counter
	tenantCells map[string]*Counter
}

// NewRouterPlane builds a router telemetry plane. Pass a shared Registry to
// co-expose router and shard metrics on one scrape, or nil for a fresh one.
func NewRouterPlane(reg *Registry) *RouterPlane {
	if reg == nil {
		reg = NewRegistry()
	}
	p := &RouterPlane{
		Registry: reg,
		Log:      NewRouterLog(0),
		decisions: reg.CounterVec("tetriserve_router_decisions_total",
			"Routing decisions, by outcome (routed, infeasible, shed, unknown_resolution).", "reason"),
		routedShard: reg.CounterVec("tetriserve_router_routed_total",
			"Requests routed, by destination shard.", "shard"),
		shedTenant: reg.CounterVec("tetriserve_router_shed_total",
			"Requests shed under weighted-fair admission, by tenant.", "tenant"),
		byReason:    map[router.Reason]*Counter{},
		shardCells:  map[string]*Counter{},
		tenantCells: map[string]*Counter{},
	}
	for _, reason := range []router.Reason{
		router.ReasonRouted, router.ReasonInfeasible, router.ReasonShed, router.ReasonUnknown,
	} {
		p.byReason[reason] = p.decisions.With(string(reason))
	}
	return p
}

// Observe records one routing decision; wire it as router.Config.Observer.
func (p *RouterPlane) Observe(dec router.Decision) {
	p.mu.Lock()
	c, ok := p.byReason[dec.Reason]
	if !ok {
		c = p.decisions.With(string(dec.Reason))
		p.byReason[dec.Reason] = c
	}
	c.Inc()
	switch dec.Reason {
	case router.ReasonRouted:
		sc, ok := p.shardCells[dec.ShardName]
		if !ok {
			sc = p.routedShard.With(dec.ShardName)
			p.shardCells[dec.ShardName] = sc
		}
		sc.Inc()
	case router.ReasonShed:
		tc, ok := p.tenantCells[dec.Tenant]
		if !ok {
			tc = p.shedTenant.With(dec.Tenant)
			p.tenantCells[dec.Tenant] = tc
		}
		tc.Inc()
	}
	p.mu.Unlock()
	p.Log.Add(dec)
}

// RouterLog is a bounded ring of routing decisions, written at decision time
// and read concurrently by GET /v1/router/stats?explain=1.
type RouterLog struct {
	mu   sync.Mutex
	ring []router.Decision
	n    uint64
}

// NewRouterLog builds a ring holding the last cap decisions (default 256).
func NewRouterLog(cap int) *RouterLog {
	if cap <= 0 {
		cap = 256
	}
	return &RouterLog{ring: make([]router.Decision, 0, cap)}
}

// Add appends a decision, evicting the oldest once the ring is full.
func (l *RouterLog) Add(dec router.Decision) {
	l.mu.Lock()
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, dec)
	} else {
		l.ring[int(l.n)%cap(l.ring)] = dec
	}
	l.n++
	l.mu.Unlock()
}

// Len returns how many decisions have been recorded in total.
func (l *RouterLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.n)
}

// Snapshot returns copies of the last n decisions, oldest first. n ≤ 0 or
// larger than the retained window returns everything retained. Probes
// slices are copied so callers can hold them freely.
func (l *RouterLog) Snapshot(n int) []router.Decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	have := len(l.ring)
	if n <= 0 || n > have {
		n = have
	}
	out := make([]router.Decision, 0, n)
	for k := int(l.n) - n; k < int(l.n); k++ {
		d := l.ring[k%cap(l.ring)]
		d.Probes = append([]router.ProbeResult(nil), d.Probes...)
		out = append(out, d)
	}
	return out
}
