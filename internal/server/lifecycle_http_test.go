package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"tetriserve/internal/lifecycle"
	"tetriserve/internal/router"
)

// getTimeline polls url until the timeline is finalized or the deadline
// passes, returning the last response.
func getTimeline(t *testing.T, url string) (*lifecycle.Timeline, int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			if time.Now().After(deadline) {
				return nil, resp.StatusCode
			}
			time.Sleep(10 * time.Millisecond)
			continue
		}
		var tl lifecycle.Timeline
		if err := json.NewDecoder(resp.Body).Decode(&tl); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if tl.Done || time.Now().After(deadline) {
			return &tl, http.StatusOK
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRoutedRequestTimeline drives one request through the router and both
// trace endpoints: the routed job carries a router-minted trace id, the
// request's full admission→finish timeline is retrievable from the router,
// and /v1/fleet aggregates every shard.
func TestRoutedRequestTimeline(t *testing.T) {
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

	body, _ := json.Marshal(RoutedGenerateRequest{
		Prompt: "a koi pond", Width: 512, Height: 512, SLOMillis: 30_000, Tenant: "acme",
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
	if rj.TraceID == "" {
		t.Fatal("routed job missing router-minted trace id")
	}

	tl, code := getTimeline(t, ts.URL+"/v1/requests/"+rj.TraceID)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/requests/%s → %d", rj.TraceID, code)
	}
	if !tl.Done {
		t.Fatalf("timeline never finalized: %+v", tl)
	}
	if tl.TraceID != rj.TraceID || tl.Tenant != "acme" {
		t.Fatalf("timeline identity: trace=%q tenant=%q", tl.TraceID, tl.Tenant)
	}
	if tl.Shard != rj.Shard {
		t.Fatalf("timeline shard %q, routed to %q", tl.Shard, rj.Shard)
	}
	// Acceptance bar: a complete timeline has at least admission, plan-wait,
	// compute, and finish.
	if len(tl.Spans) < 4 {
		t.Fatalf("timeline has %d spans, want ≥4: %+v", len(tl.Spans), tl.Spans)
	}
	if tl.Spans[0].Kind != lifecycle.SpanAdmission {
		t.Fatalf("first span %s, want admission", tl.Spans[0].Kind)
	}
	if last := tl.Spans[len(tl.Spans)-1].Kind; last != lifecycle.SpanFinish {
		t.Fatalf("last span %s, want finish", last)
	}
	hasCompute := false
	for _, s := range tl.Spans {
		if s.Kind == lifecycle.SpanCompute {
			hasCompute = true
		}
	}
	if !hasCompute {
		t.Fatal("timeline has no compute span")
	}

	// The shard's own API serves the same timeline, by trace id and by
	// decimal request id.
	shardSrv := httptest.NewServer(NewAPI(shardDriverOf(t, rj, shardA, shardB)).Handler())
	defer shardSrv.Close()
	direct, code := getTimeline(t, shardSrv.URL+"/v1/requests/"+rj.TraceID)
	if code != http.StatusOK || direct.TraceID != rj.TraceID {
		t.Fatalf("shard-direct lookup: code=%d tl=%+v", code, direct)
	}

	// Unknown trace → 404 on the router.
	nf, err := http.Get(ts.URL + "/v1/requests/t-does-not-exist")
	if err != nil {
		t.Fatal(err)
	}
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace status %d, want 404", nf.StatusCode)
	}

	// /v1/fleet aggregates both shards plus the router's admission stats.
	fresp, err := http.Get(ts.URL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer fresp.Body.Close()
	var fleet struct {
		Router router.Stats `json:"router"`
		Shards []struct {
			Name       string  `json:"name"`
			Reachable  bool    `json:"reachable"`
			QueueDepth int     `json:"queue_depth"`
			Attainment float64 `json:"attainment"`
			Stats      Stats   `json:"stats"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(fresp.Body).Decode(&fleet); err != nil {
		t.Fatal(err)
	}
	if fleet.Router.Decisions != 1 || fleet.Router.Routed != 1 {
		t.Fatalf("fleet router stats %+v", fleet.Router)
	}
	if len(fleet.Shards) != 2 {
		t.Fatalf("fleet lists %d shards, want 2", len(fleet.Shards))
	}
	completed := 0
	for _, s := range fleet.Shards {
		if !s.Reachable {
			t.Fatalf("shard %s unreachable in fleet view", s.Name)
		}
		completed += s.Stats.Completed
	}
	if completed != 1 {
		t.Fatalf("fleet shards completed %d, want 1", completed)
	}

	// ?explain=K with K far beyond the ring capacity stays a 200 and returns
	// only what the ring retains.
	sresp, err := http.Get(ts.URL + "/v1/router/stats?explain=1000000")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("explain beyond capacity status %d, want 200", sresp.StatusCode)
	}
	var sview struct {
		Explain []json.RawMessage `json:"explain"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&sview); err != nil {
		t.Fatal(err)
	}
	// The single /v1/generate call is the only routing decision recorded.
	if len(sview.Explain) != 1 {
		t.Fatalf("explain returned %d decisions, want 1", len(sview.Explain))
	}
}

// shardDriverOf maps the routed shard name back to its driver.
func shardDriverOf(t *testing.T, rj RoutedJob, a, b *Driver) *Driver {
	t.Helper()
	switch rj.Shard {
	case "a":
		return a
	case "b":
		return b
	}
	t.Fatalf("routed to unknown shard %q", rj.Shard)
	return nil
}

// TestTraceHeaderPropagation: a caller-supplied trace header survives the
// remote-shard hop and keys the shard's timeline.
func TestTraceHeaderPropagation(t *testing.T) {
	d := newShardDriver(t, 2)
	shardSrv := httptest.NewServer(NewAPI(d).Handler())
	defer shardSrv.Close()

	body, _ := json.Marshal(GenerateRequest{
		Prompt: "a koi pond", Width: 512, Height: 512, SLOMillis: 30_000,
	})
	req, err := http.NewRequest("POST", shardSrv.URL+"/v1/images/generations", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TraceHeader, "t-external-7")
	req.Header.Set(TenantHeader, "ext")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	if job.TraceID != "t-external-7" {
		t.Fatalf("job trace id %q, want header value", job.TraceID)
	}
	tl, code := getTimeline(t, shardSrv.URL+"/v1/requests/t-external-7")
	if code != http.StatusOK {
		t.Fatalf("timeline by external trace: %d", code)
	}
	if tl.Tenant != "ext" {
		t.Fatalf("timeline tenant %q, want ext", tl.Tenant)
	}

	// The decimal job id resolves the same timeline; a malformed id that
	// merely starts with it does not.
	id := strconv.Itoa(int(job.ID))
	if byID, code := getTimeline(t, shardSrv.URL+"/v1/requests/"+id); code != http.StatusOK || byID.TraceID != "t-external-7" {
		t.Fatalf("timeline by job id %s: code=%d", id, code)
	}
	for _, key := range []string{id + "abc", "%20" + id, "+" + id} {
		resp, err := http.Get(shardSrv.URL + "/v1/requests/" + key)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /v1/requests/%s → %d, want 404", key, resp.StatusCode)
		}
	}
}

// TestRemoteShardTimelineProxy: the router resolves timelines across an HTTP
// shard boundary (RemoteShard.FetchTimeline).
func TestRemoteShardTimelineProxy(t *testing.T) {
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
	if rj.TraceID == "" {
		t.Fatal("remote-shard routed job missing trace id")
	}
	tl, code := getTimeline(t, ts.URL+"/v1/requests/"+rj.TraceID)
	if code != http.StatusOK || !tl.Done {
		t.Fatalf("proxied timeline: code=%d done=%v", code, tl != nil && tl.Done)
	}
	if tl.Shard == "" {
		t.Fatal("proxied timeline missing shard name")
	}
}
