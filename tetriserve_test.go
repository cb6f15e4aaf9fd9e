package tetriserve_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	tetriserve "tetriserve"
	"tetriserve/internal/control"
	"tetriserve/internal/core"
	"tetriserve/internal/engine"
	"tetriserve/internal/lifecycle"
	"tetriserve/internal/router"
	"tetriserve/internal/server"
	"tetriserve/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/options.golden")

// TestFacadeEndToEnd drives the whole public API: profile, schedule,
// simulate, measure — the quickstart path a downstream user takes.
func TestFacadeEndToEnd(t *testing.T) {
	mdl := tetriserve.FLUX()
	topo := tetriserve.H100x8()
	prof := tetriserve.Profile(mdl, topo)
	sch := tetriserve.NewScheduler(prof, topo, tetriserve.DefaultSchedulerConfig())

	res, err := tetriserve.Simulate(tetriserve.SimConfig{
		Model: mdl, Topo: topo, Scheduler: sch, Profile: prof,
		Requests: tetriserve.GenerateWorkload(tetriserve.WorkloadConfig{
			Model: mdl, Mix: tetriserve.UniformMix(),
			SLO: tetriserve.NewSLOPolicy(1.2), NumRequests: 80, Seed: 5,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sar := tetriserve.SAR(res); sar < 0.5 {
		t.Fatalf("facade SAR = %.2f, implausibly low", sar)
	}
	by := tetriserve.SARByResolution(res)
	if len(by) != 4 {
		t.Fatalf("per-resolution SAR missing entries: %v", by)
	}
	if tetriserve.MeanLatency(res) <= 0 {
		t.Fatal("no latency recorded")
	}
}

// TestFacadeBeatsBaselines pins the repository's headline through the
// public API alone.
func TestFacadeBeatsBaselines(t *testing.T) {
	mdl := tetriserve.FLUX()
	topo := tetriserve.H100x8()
	prof := tetriserve.Profile(mdl, topo)

	run := func(s tetriserve.Scheduler) float64 {
		res, err := tetriserve.Simulate(tetriserve.SimConfig{
			Model: mdl, Topo: topo, Scheduler: s, Profile: prof,
			Requests: tetriserve.GenerateWorkload(tetriserve.WorkloadConfig{
				Model: mdl, SLO: tetriserve.NewSLOPolicy(1.3), NumRequests: 200, Seed: 9,
			}),
			DropLateFactor: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tetriserve.SAR(res)
	}

	tetri := run(tetriserve.NewScheduler(prof, topo, tetriserve.DefaultSchedulerConfig()))
	for _, k := range []int{1, 2, 4, 8} {
		if b := run(tetriserve.NewFixedSP(k)); tetri < b {
			t.Errorf("TetriServe %.2f below xDiT SP=%d %.2f", tetri, k, b)
		}
	}
	if b := run(tetriserve.NewRSSP(8)); tetri < b {
		t.Errorf("TetriServe %.2f below RSSP %.2f", tetri, b)
	}
}

// TestFacadeServer spins the live HTTP surface through the facade.
func TestFacadeServer(t *testing.T) {
	mdl := tetriserve.FLUX()
	topo := tetriserve.H100x8()
	prof := tetriserve.Profile(mdl, topo)
	srv, err := tetriserve.NewServer(tetriserve.ServerConfig{
		Model: mdl, Topo: topo,
		Scheduler: tetriserve.NewScheduler(prof, topo, tetriserve.DefaultSchedulerConfig()),
		Speedup:   200,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()

	ts := httptest.NewServer(tetriserve.NewServerHandler(srv))
	defer ts.Close()

	body, _ := json.Marshal(map[string]any{
		"prompt": "a floating island village, vivid colors",
		"width":  512, "height": 512,
	})
	resp, err := http.Post(ts.URL+"/v1/images/generations", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID int `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("job did not complete")
		}
		st, ok := srv.JobStatus(tetriserve.RequestID(job.ID))
		if ok && st.State == "completed" {
			if !st.MetSLO {
				t.Log("job missed SLO on a loaded test machine (acceptable)")
			}
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFacadeCacheIntegration exercises the cache through the facade types.
func TestFacadeCacheIntegration(t *testing.T) {
	c := tetriserve.NewCache()
	p := tetriserve.Prompt{Text: "x", Theme: 3, Mods: []int{1, 2, 3}}
	c.Insert(p, tetriserve.Res512)
	if skip := c.Lookup(p, tetriserve.Res512, 50); skip != 25 {
		t.Fatalf("cache skip = %d, want 25", skip)
	}
}

// TestStandardResolutionAliases checks the re-exported constants.
func TestStandardResolutionAliases(t *testing.T) {
	if tetriserve.Res256.W != 256 || tetriserve.Res2048.H != 2048 {
		t.Fatal("resolution aliases wrong")
	}
	if tetriserve.SD3().Name != "SD3-Medium" || tetriserve.A40x4().N != 4 {
		t.Fatal("model/topology aliases wrong")
	}
	if tetriserve.SkewedMix(1.0).Name() == tetriserve.UniformMix().Name() {
		t.Fatal("mix constructors wrong")
	}
}

// TestOptionCensus pins every independently settable config field as a sorted
// Type.Field list, so a new option shows up as a golden diff in review; the
// file's line count is the number ROADMAP aim 2 tracks. Regenerate with
// `go test . -run TestOptionCensus -update`.
func TestOptionCensus(t *testing.T) {
	var fields []string
	for _, cfg := range []any{
		core.Config{}, router.Config{}, control.Config{}, engine.Config{},
		sim.Config{}, sim.ShardSpec{}, sim.ShardedConfig{}, sim.RebalanceConfig{},
		server.DriverConfig{}, server.LiveRebalancerConfig{}, lifecycle.Config{},
	} {
		typ := reflect.TypeOf(cfg)
		for i := 0; i < typ.NumField(); i++ {
			fields = append(fields, typ.String()+"."+typ.Field(i).Name)
		}
	}
	sort.Strings(fields)
	got := strings.Join(fields, "\n") + "\n"

	path := filepath.Join("testdata", "options.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("config fields diverged from %s; review, then regenerate with -update.\n--- got ---\n%s--- want ---\n%s",
			path, got, want)
	}
}
