// HTTP server: run the online serving daemon in-process, drive it through
// its public HTTP API, and print the resulting job records and stats.
//
//	go run ./examples/httpserver
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"tetriserve/internal/core"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/model"
	"tetriserve/internal/server"
	"tetriserve/internal/simgpu"
)

func main() {
	mdl := model.FLUX()
	topo := simgpu.H100x8()
	prof := costmodel.BuildProfile(costmodel.NewEstimator(mdl, topo), costmodel.ProfilerConfig{})

	driver, err := server.NewDriver(server.DriverConfig{
		Model:     mdl,
		Topo:      topo,
		Scheduler: core.NewScheduler(prof, topo, core.DefaultConfig()),
		Speedup:   25, // replay hardware time 25x faster
	})
	if err != nil {
		panic(err)
	}
	driver.Start()
	defer driver.Stop()

	ts := httptest.NewServer(server.NewAPI(driver).Handler())
	defer ts.Close()
	fmt.Println("serving on", ts.URL)

	// Submit a few mixed-resolution generations.
	prompts := []struct {
		text string
		size int
	}{
		{"a koi pond in autumn, watercolor, golden hour", 512},
		{"a cyberpunk street market, cinematic lighting, 8k", 2048},
		{"a clockwork owl, charcoal sketch", 256},
		{"an underwater city, photorealistic, volumetric fog", 1024},
	}
	var ids []int
	for _, p := range prompts {
		body, _ := json.Marshal(map[string]any{
			"prompt": p.text, "width": p.size, "height": p.size,
		})
		resp, err := http.Post(ts.URL+"/v1/images/generations", "application/json", bytes.NewReader(body))
		if err != nil {
			panic(err)
		}
		var job struct {
			ID int `json:"id"`
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(data, &job); err != nil {
			panic(fmt.Sprintf("bad response %s: %v", data, err))
		}
		fmt.Printf("submitted %dx%d as job %d\n", p.size, p.size, job.ID)
		ids = append(ids, job.ID)
	}

	// Poll until every job is terminal: completed or dropped. A 410 means the
	// server has evicted the job's record.
	for _, id := range ids {
		for {
			resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id))
			if err != nil {
				panic(err)
			}
			if resp.StatusCode == http.StatusGone {
				resp.Body.Close()
				fmt.Printf("job %d: evicted\n", id)
				break
			}
			var job struct {
				State     string  `json:"state"`
				LatencyNS int64   `json:"latency_ns"`
				MetSLO    bool    `json:"met_slo"`
				AvgDegree float64 `json:"avg_degree"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
				panic(err)
			}
			resp.Body.Close()
			if job.State == "completed" {
				fmt.Printf("job %d: latency=%s met_slo=%v avg SP degree=%.1f\n",
					id, time.Duration(job.LatencyNS).Round(time.Millisecond), job.MetSLO, job.AvgDegree)
				break
			}
			if job.State == "dropped" {
				fmt.Printf("job %d: dropped\n", id)
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	stats, _ := io.ReadAll(resp.Body)
	fmt.Printf("stats: %s", stats)
}
