package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tetriserve/internal/cache"
	"tetriserve/internal/core"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/model"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

// newTestDriver spins up a fast driver (high speedup keeps tests quick).
func newTestDriver(t *testing.T, mutate ...func(*DriverConfig)) *Driver {
	t.Helper()
	mdl := model.FLUX()
	topo := simgpu.H100x8()
	prof := costmodel.BuildProfile(costmodel.NewEstimator(mdl, topo), costmodel.ProfilerConfig{})
	cfg := DriverConfig{
		Model:     mdl,
		Topo:      topo,
		Scheduler: core.NewScheduler(prof, topo, core.DefaultConfig()),
		Speedup:   200,
	}
	for _, m := range mutate {
		m(&cfg)
	}
	d, err := NewDriver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	t.Cleanup(d.Stop)
	return d
}

func waitForJob(t *testing.T, d *Driver, id workload.RequestID, timeout time.Duration) Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if j, ok := d.JobStatus(id); ok && j.State == JobCompleted {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	j, _ := d.JobStatus(id)
	t.Fatalf("job %d did not complete in %v (state %s)", id, timeout, j.State)
	return Job{}
}

func TestDriverServesSingleRequest(t *testing.T) {
	d := newTestDriver(t)
	job, err := d.Submit(workload.Prompt{Text: "a koi pond"}, model.Res512, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := waitForJob(t, d, job.ID, 10*time.Second)
	if done.Latency <= 0 {
		t.Fatal("no latency recorded")
	}
	if done.SLO != 2*time.Second {
		t.Fatalf("default SLO = %v, want the 2s 512px budget", done.SLO)
	}
	if done.AvgDegree < 1 {
		t.Fatalf("avg degree = %v", done.AvgDegree)
	}
}

func TestDriverRejectsBadResolutions(t *testing.T) {
	d := newTestDriver(t)
	if _, err := d.Submit(workload.Prompt{}, model.Resolution{W: 17, H: 17}, 0); err == nil {
		t.Fatal("invalid resolution accepted")
	}
	if _, err := d.Submit(workload.Prompt{}, model.Resolution{W: 640, H: 640}, 0); err == nil {
		t.Fatal("unprofiled resolution accepted")
	}
}

func TestDriverStats(t *testing.T) {
	d := newTestDriver(t)
	var ids []workload.RequestID
	for i := 0; i < 3; i++ {
		job, err := d.Submit(workload.Prompt{Text: "x", Theme: i}, model.Res256, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	for _, id := range ids {
		waitForJob(t, d, id, 10*time.Second)
	}
	st := d.Snapshot()
	if st.Completed != 3 {
		t.Fatalf("completed = %d", st.Completed)
	}
	if st.Queued != 0 || st.Running != 0 {
		t.Fatalf("leftover queue state: %+v", st)
	}
	if st.GPUBusyS <= 0 {
		t.Fatal("no GPU time accounted")
	}
}

func TestDriverWithCache(t *testing.T) {
	c := cache.New(cache.DefaultConfig())
	d := newTestDriver(t, func(cfg *DriverConfig) { cfg.Cache = c })
	prompt := workload.Prompt{Text: "same", Theme: 5, Mods: []int{1, 2, 3}}
	j1, _ := d.Submit(prompt, model.Res256, 0)
	waitForJob(t, d, j1.ID, 10*time.Second)
	j2, _ := d.Submit(prompt, model.Res256, 0)
	done := waitForJob(t, d, j2.ID, 10*time.Second)
	if done.Skipped == 0 {
		t.Fatal("second identical prompt should hit the cache and skip steps")
	}
}

func TestHTTPGenerateAndPoll(t *testing.T) {
	d := newTestDriver(t)
	ts := httptest.NewServer(NewAPI(d).Handler())
	defer ts.Close()

	body, _ := json.Marshal(GenerateRequest{Prompt: "a lighthouse on a cliff", Width: 256, Height: 256})
	resp, err := http.Post(ts.URL+"/v1/images/generations", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	waitForJob(t, d, job.ID, 10*time.Second)
	resp, err = http.Get(ts.URL + "/v1/jobs/0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var polled Job
	if err := json.NewDecoder(resp.Body).Decode(&polled); err != nil {
		t.Fatal(err)
	}
	if polled.State != JobCompleted {
		t.Fatalf("polled state = %s", polled.State)
	}
}

func TestHTTPValidation(t *testing.T) {
	d := newTestDriver(t)
	ts := httptest.NewServer(NewAPI(d).Handler())
	defer ts.Close()

	cases := []struct {
		body string
		want int
	}{
		{`not json`, http.StatusBadRequest},
		{`{"prompt":"", "width":256, "height":256}`, http.StatusBadRequest},
		{`{"prompt":"x", "width":17, "height":17}`, http.StatusBadRequest},
		// Unprofiled-but-valid resolutions are a client error for this
		// deployment (the response lists the supported set), not a 422.
		{`{"prompt":"x", "width":640, "height":640}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/images/generations", "application/json",
			bytes.NewReader([]byte(c.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("body %q: status %d, want %d", c.body, resp.StatusCode, c.want)
		}
	}
}

func TestHTTPJobNotFound(t *testing.T) {
	d := newTestDriver(t)
	ts := httptest.NewServer(NewAPI(d).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/jobs/999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/abc")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestHTTPStatsAndProfileEndpoints(t *testing.T) {
	d := newTestDriver(t)
	ts := httptest.NewServer(NewAPI(d).Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/v1/profile")
	if err != nil {
		t.Fatal(err)
	}
	var entries []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(entries) != 16 { // 4 resolutions × 4 degrees
		t.Fatalf("profile entries = %d, want 16", len(entries))
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatal("healthz not ok")
	}
}

func TestHashPromptDeterministic(t *testing.T) {
	a := HashPrompt("a lighthouse on a cliff, oil painting")
	b := HashPrompt("a lighthouse on a cliff, oil painting")
	if a.Theme != b.Theme || len(a.Mods) != len(b.Mods) {
		t.Fatal("hash prompt not deterministic")
	}
	// Same subject, different style → same theme bucket.
	c := HashPrompt("a lighthouse on a cliff, watercolor sketch")
	if a.Theme != c.Theme {
		t.Fatal("same leading subject should share a theme")
	}
	// Different subject → (almost certainly) different theme.
	d := HashPrompt("an underwater city, photorealistic render")
	if a.Theme == d.Theme && a.Mods[0] == d.Mods[0] {
		t.Log("hash collision between distinct subjects (acceptable but rare)")
	}
}

func TestDriverConfigValidation(t *testing.T) {
	if _, err := NewDriver(DriverConfig{}); err == nil {
		t.Fatal("empty driver config accepted")
	}
}

func TestAdmitAnyResolution(t *testing.T) {
	d := newTestDriver(t, func(cfg *DriverConfig) { cfg.AdmitAnyResolution = true })
	// 768x768 is not in the standard profile; on-demand profiling plus
	// SLO interpolation must admit and serve it.
	job, err := d.Submit(workload.Prompt{Text: "wide shot"}, model.Resolution{W: 768, H: 768}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 768² has 2304 latent tokens — between the 512² (2s) and 1024² (3s)
	// anchors, so the interpolated SLO must fall strictly between them.
	if job.SLO <= 2*time.Second || job.SLO >= 3*time.Second {
		t.Fatalf("interpolated SLO = %v, want in (2s, 3s)", job.SLO)
	}
	done := waitForJob(t, d, job.ID, 15*time.Second)
	if done.State != JobCompleted {
		t.Fatal("non-standard resolution never completed")
	}
}

func TestRejectUnprofiledWithoutAdmitAny(t *testing.T) {
	d := newTestDriver(t)
	if _, err := d.Submit(workload.Prompt{}, model.Resolution{W: 768, H: 768}, 0); err == nil {
		t.Fatal("768x768 accepted without AdmitAnyResolution")
	}
}

// TestJobStatusMatchesResult: on a drained run, every job's view, rendered
// from its lifecycle timeline, agrees with the loop's outcome for it.
func TestJobStatusMatchesResult(t *testing.T) {
	d := newTestDriver(t, func(cfg *DriverConfig) { cfg.Cache = cache.New(cache.DefaultConfig()) })
	submit := func(p workload.Prompt, res model.Resolution) workload.RequestID {
		t.Helper()
		job, err := d.Submit(p, res, 0)
		if err != nil {
			t.Fatal(err)
		}
		return job.ID
	}
	var ids []workload.RequestID
	for i, res := range []model.Resolution{model.Res256, model.Res512, model.Res1024, model.Res512} {
		ids = append(ids, submit(workload.Prompt{Text: "x", Theme: i}, res))
	}
	// A prompt repeated after its first completion hits the cache and
	// skips steps.
	again := workload.Prompt{Text: "same", Theme: 9, Mods: []int{1, 2, 3}}
	first := submit(again, model.Res256)
	waitForJob(t, d, first, 10*time.Second)
	ids = append(ids, first, submit(again, model.Res256))
	for _, id := range ids {
		waitForJob(t, d, id, 10*time.Second)
	}

	res := d.Result()
	if len(res.Outcomes) != len(ids) {
		t.Fatalf("%d outcomes for %d jobs", len(res.Outcomes), len(ids))
	}
	skipped := 0
	for _, o := range res.Outcomes {
		j, ok := d.JobStatus(o.ID)
		if !ok {
			t.Fatalf("job %d has no status", o.ID)
		}
		if j.State != JobCompleted || j.MetSLO != o.Met || j.AvgDegree != o.AvgDegree || j.Skipped != o.Skipped ||
			j.Width != o.Res.W || j.Height != o.Res.H {
			t.Errorf("job %d view %+v disagrees with outcome %+v", o.ID, j, o)
		}
		if diff := j.Latency - o.Latency; diff <= -time.Microsecond || diff >= time.Microsecond {
			t.Errorf("job %d latency %v, outcome %v: more than 1µs apart", o.ID, j.Latency, o.Latency)
		}
		skipped += j.Skipped
	}
	if skipped == 0 {
		t.Fatal("no job skipped steps, so skipped_steps went unchecked")
	}
	st := d.Snapshot()
	if st.Completed != len(ids) || st.Queued != 0 || st.Running != 0 {
		t.Fatalf("drained stats %+v, want %d completed and nothing queued or running", st, len(ids))
	}
}

// TestJobQueuedBeforeStart: a job accepted by a driver whose loop has not
// started waits in the arrive channel; it reads queued, counts as queued,
// and answers {"id":N,"state":"queued"} over HTTP. Once the loop starts it
// runs to completion; after Stop, nothing is in transit any more.
func TestJobQueuedBeforeStart(t *testing.T) {
	d := newStoppedDriver(t)
	t.Cleanup(d.Stop)
	ts := httptest.NewServer(NewAPI(d).Handler())
	defer ts.Close()
	job, err := d.Submit(workload.Prompt{Text: "early"}, model.Res256, 0)
	if err != nil {
		t.Fatal(err)
	}
	if j, ok := d.JobStatus(job.ID); !ok || j.State != JobQueued {
		t.Fatalf("JobStatus = %+v, %v; want queued", j, ok)
	}
	if st := d.Snapshot(); st.Queued != 1 || st.Running != 0 {
		t.Fatalf("stats %+v, want the job queued", st)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/0")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := string(bytes.TrimSpace(body)); resp.StatusCode != http.StatusOK || got != `{"id":0,"state":"queued"}` {
		t.Fatalf("GET /v1/jobs/0 = %d %s", resp.StatusCode, got)
	}

	d.Start()
	waitForJob(t, d, job.ID, 10*time.Second)
	if st := d.Snapshot(); st.Queued != 0 || st.Completed != 1 {
		t.Fatalf("stats %+v after the job completed", st)
	}

	// A job stuck in the channel of a stopped driver never reaches a loop.
	idle := newStoppedDriver(t)
	stuck, err := idle.Submit(workload.Prompt{Text: "never"}, model.Res256, 0)
	if err != nil {
		t.Fatal(err)
	}
	idle.Stop()
	if j, ok := idle.JobStatus(stuck.ID); ok {
		t.Fatalf("a stopped driver reports %+v as in transit", j)
	}
}

// TestEvictedJobIsGone: once LifecycleCapacity later jobs have finished, a
// job's timeline is evicted and GET /v1/jobs answers 410; an ID never issued
// still answers 404.
func TestEvictedJobIsGone(t *testing.T) {
	d := newTestDriver(t, func(cfg *DriverConfig) { cfg.LifecycleCapacity = 2 })
	ts := httptest.NewServer(NewAPI(d).Handler())
	defer ts.Close()
	for i := 0; i < 3; i++ {
		job, err := d.Submit(workload.Prompt{Text: "x", Theme: i}, model.Res256, 0)
		if err != nil {
			t.Fatal(err)
		}
		waitForJob(t, d, job.ID, 10*time.Second)
	}
	for path, want := range map[string]int{
		"/v1/jobs/0":   http.StatusGone,
		"/v1/jobs/2":   http.StatusOK,
		"/v1/jobs/3":   http.StatusNotFound,
		"/v1/jobs/999": http.StatusNotFound,
		"/v1/jobs/-1":  http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestJobNeverAtLoopIsNotFound: once the driver stops, a job that never
// left the arrive channel and the ID of a Submit that failed both answer
// 404 over HTTP: neither ever had a timeline, so neither was evicted. The
// failed Submit also leaves the accepted count.
func TestJobNeverAtLoopIsNotFound(t *testing.T) {
	d := newStoppedDriver(t)
	ts := httptest.NewServer(NewAPI(d).Handler())
	defer ts.Close()
	buffered := cap(d.arrive)
	for i := 0; i < buffered; i++ {
		if _, err := d.Submit(workload.Prompt{Text: "x", Theme: i}, model.Res256, 0); err != nil {
			t.Fatal(err)
		}
	}
	// The arrive channel is full, so the next Submit takes its ID and then
	// blocks in the send until Stop fails it.
	errc := make(chan error, 1)
	go func() {
		_, err := d.Submit(workload.Prompt{Text: "blocked"}, model.Res256, 0)
		errc <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		d.mu.Lock()
		issued := int(d.nextID)
		d.mu.Unlock()
		if issued == buffered+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the blocked Submit never took an ID (%d issued)", issued)
		}
		time.Sleep(time.Millisecond)
	}
	d.Stop()
	if err := <-errc; err == nil {
		t.Fatal("Submit into a full channel of a stopped driver succeeded")
	}
	if st := d.Snapshot(); st.Queued != buffered {
		t.Fatalf("stats %+v, want the %d channelled jobs queued and the failed one taken back", st, buffered)
	}
	for _, id := range []int{0, buffered} {
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /v1/jobs/%d = %d, want 404", id, resp.StatusCode)
		}
	}
}

// TestStatsCountJobsNoLaterThanJobStatus: /v1/stats counts a job as
// terminal no later than JobStatus reports it so. Every poll counts the
// jobs that read terminal, then takes a Snapshot; the Snapshot must count
// at least as many.
func TestStatsCountJobsNoLaterThanJobStatus(t *testing.T) {
	d := newTestDriver(t)
	const n = 12
	for i := 0; i < n; i++ {
		if _, err := d.Submit(workload.Prompt{Text: "x", Theme: i}, model.Res256, 0); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		terminal := 0
		for id := workload.RequestID(0); id < n; id++ {
			if j, ok := d.JobStatus(id); ok && (j.State == JobCompleted || j.State == JobDropped) {
				terminal++
			}
		}
		st := d.Snapshot()
		if st.Completed+st.Dropped < terminal || st.Queued < 0 {
			t.Fatalf("%d jobs read terminal, then stats %+v", terminal, st)
		}
		if terminal == n {
			if st.Queued != 0 || st.Running != 0 {
				t.Fatalf("every job terminal, stats %+v", st)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d jobs terminal after 20s", terminal, n)
		}
	}
}
