package router

import (
	"fmt"
	"testing"
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/model"
)

// fakeShard answers probes from a table, standing in for a control.Loop.
type fakeShard struct {
	name    string
	feas    control.Feasibility
	err     error
	probes  int
	lastRes model.Resolution
}

func (s *fakeShard) Name() string { return s.name }

func (s *fakeShard) ProbeFeasibility(res model.Resolution, steps int, slo time.Duration) (control.Feasibility, error) {
	s.probes++
	s.lastRes = res
	return s.feas, s.err
}

func winnable(slack time.Duration, gpus int) control.Feasibility {
	return control.Feasibility{
		Winnable: true, Slack: slack,
		HealthyGPUs: gpus, ServiceGPUSeconds: 1,
	}
}

func losing(lateBy time.Duration, gpus int) control.Feasibility {
	return control.Feasibility{
		Winnable: false, Slack: -lateBy,
		HealthyGPUs: gpus, ServiceGPUSeconds: 1,
	}
}

func mustNew(t *testing.T, cfg Config, shards ...Shard) *Router {
	t.Helper()
	r, err := New(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRoutepicksMaxSlackShard(t *testing.T) {
	a := &fakeShard{name: "a", feas: winnable(time.Second, 2)}
	b := &fakeShard{name: "b", feas: winnable(3*time.Second, 2)}
	c := &fakeShard{name: "c", feas: losing(time.Second, 2)}
	r := mustNew(t, Config{}, a, b, c)

	dec := r.Route("t", model.Res512, 0, 2*time.Second)
	if !dec.Accepted || dec.Reason != ReasonRouted {
		t.Fatalf("want routed, got %+v", dec)
	}
	if dec.Shard != 1 || dec.ShardName != "b" {
		t.Fatalf("want shard b (1), got %d %q", dec.Shard, dec.ShardName)
	}
	if dec.Slack != 3*time.Second {
		t.Fatalf("want slack 3s, got %v", dec.Slack)
	}
	if len(dec.Probes) != 3 {
		t.Fatalf("want all 3 shards probed, got %d", len(dec.Probes))
	}
	for _, s := range []*fakeShard{a, b, c} {
		if s.probes != 1 {
			t.Fatalf("shard %s probed %d times", s.name, s.probes)
		}
	}
}

func TestRouteTieBreaksToLowestIndex(t *testing.T) {
	a := &fakeShard{name: "a", feas: winnable(time.Second, 2)}
	b := &fakeShard{name: "b", feas: winnable(time.Second, 2)}
	r := mustNew(t, Config{}, a, b)

	for i := 0; i < 5; i++ {
		if dec := r.Route("", model.Res512, 0, time.Second); dec.Shard != 0 {
			t.Fatalf("tie must break to index 0, got %d", dec.Shard)
		}
	}
}

func TestRouteInfeasibleSetsRetryAfter(t *testing.T) {
	// The least-loaded shard misses by 2 s, the other by 10 s: the client
	// should come back after the smaller lateness.
	a := &fakeShard{name: "a", feas: losing(10*time.Second, 2)}
	b := &fakeShard{name: "b", feas: losing(2*time.Second, 2)}
	r := mustNew(t, Config{}, a, b)

	dec := r.Route("t", model.Res512, 0, time.Second)
	if dec.Accepted || dec.Reason != ReasonInfeasible {
		t.Fatalf("want infeasible, got %+v", dec)
	}
	if dec.Shard != -1 || dec.ShardName != "" {
		t.Fatalf("rejected decision must carry no shard, got %d %q", dec.Shard, dec.ShardName)
	}
	if dec.RetryAfter != 2*time.Second {
		t.Fatalf("want Retry-After 2s (least-loaded lateness), got %v", dec.RetryAfter)
	}
}

func TestRetryAfterFloorsAtMinimum(t *testing.T) {
	a := &fakeShard{name: "a", feas: losing(10*time.Millisecond, 2)}
	r := mustNew(t, Config{}, a)

	dec := r.Route("", model.Res512, 0, time.Second)
	if dec.RetryAfter != time.Second {
		t.Fatalf("want floored Retry-After 1s, got %v", dec.RetryAfter)
	}
}

// TestEveryRouteProbesEveryShard: decisions always read live shard state, so
// two identical submissions probe every shard twice. A probe cache in front
// of the sweep would fail this.
func TestEveryRouteProbesEveryShard(t *testing.T) {
	a := &fakeShard{name: "a", feas: winnable(time.Second, 2)}
	b := &fakeShard{name: "b", feas: losing(time.Second, 2)}
	r := mustNew(t, Config{}, a, b)

	r.Route("t", model.Res512, 0, 2*time.Second)
	r.Route("t", model.Res512, 0, 2*time.Second)
	if a.probes != 2 || b.probes != 2 {
		t.Fatalf("probes = %d, %d, want 2, 2 (every decision live)", a.probes, b.probes)
	}
}

func TestRouteUnknownResolution(t *testing.T) {
	a := &fakeShard{name: "a", err: fmt.Errorf("resolution not profiled")}
	b := &fakeShard{name: "b", err: fmt.Errorf("resolution not profiled")}
	r := mustNew(t, Config{}, a, b)

	dec := r.Route("t", model.Resolution{W: 48, H: 48}, 0, time.Second)
	if dec.Accepted || dec.Reason != ReasonUnknown {
		t.Fatalf("want unknown_resolution, got %+v", dec)
	}
	if dec.Probes[0].Err == "" || dec.Probes[1].Err == "" {
		t.Fatalf("probe errors must be preserved on the decision: %+v", dec.Probes)
	}
}

func TestErroringShardIsSkippedNotFatal(t *testing.T) {
	a := &fakeShard{name: "a", err: fmt.Errorf("driver stopped")}
	b := &fakeShard{name: "b", feas: winnable(time.Second, 2)}
	r := mustNew(t, Config{}, a, b)

	dec := r.Route("", model.Res512, 0, time.Second)
	if !dec.Accepted || dec.Shard != 1 {
		t.Fatalf("want routed to b despite a's error, got %+v", dec)
	}
}

// TestWeightedFairShedding drives the fleet into overload with two tenants,
// one consuming far beyond its weight: only the over-share tenant is shed,
// the in-share tenant keeps being admitted.
func TestWeightedFairShedding(t *testing.T) {
	// One 2-GPU shard, always winnable with huge per-request cost so the
	// window saturates fast: capacity = 0.85 × 2 GPUs × 60 s = 102 GPU·s;
	// each admission books 60 GPU·s.
	shard := &fakeShard{name: "a", feas: control.Feasibility{
		Winnable: true, Slack: time.Second, HealthyGPUs: 2, ServiceGPUSeconds: 60,
	}}
	r := mustNew(t, Config{
		TenantWeights: map[string]float64{"heavy": 1, "light": 1},
	}, shard)

	now := 3 * fairnessWindow // past the window ramp so capacity is full-size
	var heavyShed, lightShed int
	for i := 0; i < 12; i++ {
		shard.feas.Now = now
		if dec := r.Route("heavy", model.Res512, 0, time.Second); dec.Reason == ReasonShed {
			heavyShed++
		}
		now += 100 * time.Millisecond
	}
	// heavy has saturated the window; light arrives with cheap requests that
	// stay well inside its share.
	shard.feas.ServiceGPUSeconds = 0.6
	for i := 0; i < 4; i++ {
		shard.feas.Now = now
		if dec := r.Route("light", model.Res512, 0, time.Second); dec.Reason == ReasonShed {
			lightShed++
		}
		now += 100 * time.Millisecond
	}

	if heavyShed == 0 {
		t.Fatal("over-share tenant was never shed under overload")
	}
	if lightShed != 0 {
		t.Fatalf("in-share tenant was shed %d times; weighted fairness must protect it", lightShed)
	}
	st := r.Stats()
	if st.Shed != heavyShed {
		t.Fatalf("stats shed %d != observed %d", st.Shed, heavyShed)
	}
}

// TestNoSheddingWithoutOverload: a tenant over its share is still admitted
// while the fleet has headroom — shedding requires both conditions.
func TestNoSheddingWithoutOverload(t *testing.T) {
	shard := &fakeShard{name: "a", feas: control.Feasibility{
		Winnable: true, Slack: time.Second, HealthyGPUs: 8, ServiceGPUSeconds: 0.6,
	}}
	r := mustNew(t, Config{}, shard)

	now := 3 * fairnessWindow
	for i := 0; i < 20; i++ {
		shard.feas.Now = now
		if dec := r.Route("only", model.Res512, 0, time.Second); !dec.Accepted {
			t.Fatalf("request %d rejected (%s) with an idle fleet", i, dec.Reason)
		}
		now += 10 * time.Millisecond
	}
}

// TestLedgerPruning: admissions age out of the fairness window, so a burst
// long past stops counting against the tenant.
func TestLedgerPruning(t *testing.T) {
	shard := &fakeShard{name: "a", feas: control.Feasibility{
		Winnable: true, Slack: time.Second, HealthyGPUs: 2, ServiceGPUSeconds: 10,
	}}
	r := mustNew(t, Config{}, shard)

	now := 2 * fairnessWindow
	for i := 0; i < 10; i++ {
		shard.feas.Now = now
		r.Route("t", model.Res512, 0, time.Second)
		now += 50 * time.Millisecond
	}
	// Jump far past the window: everything admitted above ages out.
	shard.feas.Now = now + time.Hour
	dec := r.Route("t", model.Res512, 0, time.Second)
	if !dec.Accepted {
		t.Fatalf("want admission after window reset, got %s", dec.Reason)
	}
	st := r.Stats()
	for _, ts := range st.Tenants {
		if ts.Tenant == "t" && ts.WindowGPUSeconds > 10.5 {
			t.Fatalf("window GPU·s %f not pruned", ts.WindowGPUSeconds)
		}
	}
}

func TestStatsAggregation(t *testing.T) {
	a := &fakeShard{name: "a", feas: winnable(time.Second, 2)}
	r := mustNew(t, Config{}, a)

	r.Route("t1", model.Res512, 0, time.Second)
	r.Route("t2", model.Res512, 0, time.Second)
	a.feas = losing(5*time.Second, 2)
	r.Route("t2", model.Res512, 0, time.Second)
	a.err = fmt.Errorf("resolution not profiled")
	r.Route("t1", model.Resolution{W: 48, H: 48}, 0, time.Second)

	st := r.Stats()
	if st.Decisions != 4 || st.Routed != 2 || st.Infeasible != 1 || st.Unknown != 1 {
		t.Fatalf("bad counters: %+v", st)
	}
	want := 1.0 / 4.0
	if st.EarlyRejectRate != want {
		t.Fatalf("early-reject rate %f, want %f", st.EarlyRejectRate, want)
	}
	if len(st.Shards) != 1 || st.Shards[0].Routed != 2 {
		t.Fatalf("bad shard stats: %+v", st.Shards)
	}
	if len(st.Tenants) != 2 || st.Tenants[0].Tenant != "t1" || st.Tenants[1].Tenant != "t2" {
		t.Fatalf("tenants must be sorted by name: %+v", st.Tenants)
	}
	if st.Tenants[1].Rejected != 1 {
		t.Fatalf("t2 should have 1 rejection: %+v", st.Tenants[1])
	}
}

func TestObserverSeesEveryDecision(t *testing.T) {
	a := &fakeShard{name: "a", feas: winnable(time.Second, 2)}
	var seen []Decision
	r := mustNew(t, Config{Observer: func(d Decision) { seen = append(seen, d) }}, a)

	r.Route("t", model.Res512, 0, time.Second)
	a.feas = losing(time.Second, 2)
	r.Route("t", model.Res512, 0, time.Second)

	if len(seen) != 2 || seen[0].Reason != ReasonRouted || seen[1].Reason != ReasonInfeasible {
		t.Fatalf("observer saw %+v", seen)
	}
}

func TestNewRequiresShards(t *testing.T) {
	if _, err := New(Config{}, nil); err == nil {
		t.Fatal("want error for zero shards")
	}
}

// TestRouteClockAndTraceIDs: a decision is stamped with the latest shard
// clock any probe reported, which never moves backwards, and only
// admissions mint trace IDs, numbered in admission order.
func TestRouteClockAndTraceIDs(t *testing.T) {
	a := &fakeShard{name: "a", feas: winnable(time.Second, 2)}
	b := &fakeShard{name: "b", feas: losing(time.Second, 2)}
	r := mustNew(t, Config{}, a, b)

	a.feas.Now, b.feas.Now = 5*time.Second, 9*time.Second
	if dec := r.Route("t", model.Res512, 0, time.Second); dec.At != 9*time.Second || dec.TraceID != "t-1" {
		t.Fatalf("at %v trace %q, want 9s t-1", dec.At, dec.TraceID)
	}
	a.feas.Now, b.feas.Now = 2*time.Second, 3*time.Second
	if dec := r.Route("t", model.Res512, 0, time.Second); dec.At != 9*time.Second || dec.TraceID != "t-2" {
		t.Fatalf("at %v trace %q, want the clock held at 9s and t-2", dec.At, dec.TraceID)
	}
	a.feas = losing(time.Second, 2)
	if dec := r.Route("t", model.Res512, 0, time.Second); dec.Accepted || dec.TraceID != "" {
		t.Fatalf("rejection minted trace %q", dec.TraceID)
	}
	a.feas = winnable(time.Second, 2)
	if dec := r.Route("t", model.Res512, 0, time.Second); dec.TraceID != "t-3" {
		t.Fatalf("trace %q, want t-3 (rejections take no number)", dec.TraceID)
	}
}

// TestFairSumsInTenantNameOrder: the fair-share totals are summed in
// tenant-name order, so identical runs compare a tenant against the same
// float share. With three tenants, 0.1 + 0.2 + 0.3 depends on the order of
// the additions; every call must return the sorted-order sum, and no call
// may allocate.
func TestFairSumsInTenantNameOrder(t *testing.T) {
	vals := map[string]float64{"a": 0.1, "b": 0.2, "c": 0.3}
	r, err := New(Config{TenantWeights: vals}, []Shard{&fakeShard{name: "s0"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"c", "a", "b"} {
		r.record(&Decision{Tenant: name, Reason: ReasonRouted}, vals[name])
	}
	wantTotal := 0.0
	wantTotal += vals["a"]
	wantTotal += vals["b"]
	wantTotal += vals["c"]
	if reordered := (0.0 + vals["b"] + vals["c"]) + vals["a"]; reordered == wantTotal {
		t.Fatalf("test values sum the same in every order (%v); pick others", wantTotal)
	}
	for i := 0; i < 100; i++ {
		total, weights := r.fairSums()
		if total != wantTotal || weights != wantTotal {
			t.Fatalf("call %d: fairSums() = %v, %v; want %v, %v (name order)", i, total, weights, wantTotal, wantTotal)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { r.overFairShare("a") }); allocs != 0 {
		t.Errorf("overFairShare allocates %v times per call, want 0", allocs)
	}
}
