// Command tetrictl is the client for the tetriserve daemon.
//
//	tetrictl submit -prompt "a koi pond in autumn" -size 1024
//	tetrictl status 3
//	tetrictl stats
//	tetrictl load -n 40 -rate 12 -mix uniform   # generate load and report SAR
//	tetrictl tail                               # follow the live trace stream
//	tetrictl top                                # one-shot telemetry dashboard
//	tetrictl top -shards                        # fleet dashboard (router + every shard)
//	tetrictl trace t-12                         # one request's span timeline
//	tetrictl fleet                              # fleet health: router, shards, rebalancer
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"time"

	"tetriserve/internal/model"
	"tetriserve/internal/stats"
	"tetriserve/internal/workload"
)

func main() {
	base := flag.String("server", "http://127.0.0.1:8900", "tetriserve base URL")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	cli := &client{base: *base, http: &http.Client{Timeout: 30 * time.Second}}
	var err error
	switch args[0] {
	case "submit":
		err = cmdSubmit(cli, args[1:])
	case "status":
		err = cmdStatus(cli, args[1:])
	case "stats":
		err = cmdStats(cli)
	case "load":
		err = cmdLoad(cli, args[1:])
	case "tail":
		err = cmdTail(cli, args[1:])
	case "top":
		err = cmdTop(cli, args[1:])
	case "trace":
		err = cmdTrace(cli, args[1:])
	case "fleet":
		err = cmdFleet(cli, args[1:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

type client struct {
	base string
	http *http.Client
}

func (c *client) postJSON(path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decode(resp, out)
}

func (c *client) getJSON(path string, out any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decode(resp, out)
}

// errEvicted marks a job the server answered 410 Gone for: it finished so
// long ago that its record was evicted.
var errEvicted = errors.New("evicted")

func decode(resp *http.Response, out any) error {
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusGone {
		return fmt.Errorf("%w: %s", errEvicted, bytes.TrimSpace(data))
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("server returned %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

type jobView struct {
	ID        int     `json:"id"`
	State     string  `json:"state"`
	LatencyNS int64   `json:"latency_ns"`
	SLONS     int64   `json:"slo_ns"`
	MetSLO    bool    `json:"met_slo"`
	AvgDegree float64 `json:"avg_degree"`
	Skipped   int     `json:"skipped_steps"`
}

func cmdSubmit(c *client, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	prompt := fs.String("prompt", "a lighthouse on a cliff, oil painting", "prompt text")
	size := fs.Int("size", 1024, "square output size in pixels")
	slo := fs.Int64("slo-ms", 0, "deadline in ms (0 = per-resolution default)")
	wait := fs.Bool("wait", false, "poll until completion")
	_ = fs.Parse(args)

	var job jobView
	err := c.postJSON("/v1/images/generations", map[string]any{
		"prompt": *prompt, "width": *size, "height": *size, "slo_ms": *slo,
	}, &job)
	if err != nil {
		return err
	}
	fmt.Printf("job %d accepted (%s)\n", job.ID, job.State)
	if !*wait {
		return nil
	}
	job, err = c.waitJob(job.ID, 200*time.Millisecond)
	switch {
	case errors.Is(err, errEvicted):
		fmt.Printf("job %d evicted before it was seen finishing\n", job.ID)
	case err != nil:
		return err
	case job.State == "dropped":
		fmt.Printf("job %d dropped\n", job.ID)
	default:
		fmt.Printf("job %d done: latency=%s met_slo=%v avg_degree=%.2f skipped=%d\n",
			job.ID, time.Duration(job.LatencyNS), job.MetSLO, job.AvgDegree, job.Skipped)
	}
	return nil
}

// waitJob polls a job every interval until it is completed or dropped, both
// terminal. A job the server evicted fails with errEvicted.
func (c *client) waitJob(id int, every time.Duration) (jobView, error) {
	for {
		time.Sleep(every)
		job := jobView{ID: id}
		if err := c.getJSON(fmt.Sprintf("/v1/jobs/%d", id), &job); err != nil {
			return job, err
		}
		if job.State == "completed" || job.State == "dropped" {
			return job, nil
		}
	}
}

func cmdStatus(c *client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: tetrictl status <job-id>")
	}
	var job map[string]any
	if err := c.getJSON("/v1/jobs/"+args[0], &job); err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(job)
}

func cmdStats(c *client) error {
	var st map[string]any
	if err := c.getJSON("/v1/stats", &st); err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(st)
}

func cmdLoad(c *client, args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	n := fs.Int("n", 40, "number of requests")
	rate := fs.Float64("rate", 12, "arrival rate, req/min (in server virtual time; scaled by -speedup on the server)")
	mixName := fs.String("mix", "uniform", "uniform | skewed")
	speedup := fs.Float64("speedup", 20, "server speedup, to pace wall-clock arrivals")
	seed := fs.Uint64("seed", 1, "trace seed")
	_ = fs.Parse(args)

	var mix workload.Mix
	switch *mixName {
	case "uniform":
		mix = workload.UniformMix()
	case "skewed":
		mix = workload.SkewedMix(1.0)
	default:
		return fmt.Errorf("unknown mix %q", *mixName)
	}
	rng := stats.NewRNG(*seed)
	sampler := workload.NewPromptSampler()
	arr := workload.PoissonArrivals{PerMinute: *rate}

	ids := make([]int, 0, *n)
	for i := 0; i < *n; i++ {
		gap := arr.NextGap(rng)
		time.Sleep(time.Duration(float64(gap) / *speedup))
		res := mix.Sample(rng)
		p := sampler.Sample(rng)
		var job jobView
		err := c.postJSON("/v1/images/generations", map[string]any{
			"prompt": p.Text, "width": res.W, "height": res.H,
		}, &job)
		if err != nil {
			return err
		}
		ids = append(ids, job.ID)
		fmt.Printf("submitted job %d (%s)\n", job.ID, res)
	}
	// Wait until every job is terminal (or evicted) and summarize.
	var done, met, dropped, evicted int
	for _, id := range ids {
		job, err := c.waitJob(id, 150*time.Millisecond)
		switch {
		case errors.Is(err, errEvicted):
			evicted++
		case err != nil:
			return err
		case job.State == "dropped":
			dropped++
		default:
			done++
			if job.MetSLO {
				met++
			}
		}
	}
	attainment := "n/a"
	if done > 0 {
		attainment = fmt.Sprintf("%.2f", float64(met)/float64(done))
	}
	fmt.Printf("completed %d/%d, dropped %d, evicted %d, SLO attainment %s (over completed)\n",
		done, *n, dropped, evicted, attainment)
	return nil
}

// cmdTail follows /v1/trace?follow=1 and prints each event as one JSON line.
// The stream is unbounded; a dedicated client without a request timeout is
// used so the follow can run until interrupted (or -for elapses).
func cmdTail(c *client, args []string) error {
	fs := flag.NewFlagSet("tail", flag.ExitOnError)
	dur := fs.Duration("for", 0, "stop after this long (0 = until interrupted)")
	_ = fs.Parse(args)

	req, err := http.NewRequest("GET", c.base+"/v1/trace?follow=1", nil)
	if err != nil {
		return err
	}
	if *dur > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *dur)
		defer cancel()
		req = req.WithContext(ctx)
	}
	follower := &http.Client{} // no timeout: the stream is long-lived
	resp, err := follower.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		data, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("server returned %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fmt.Println(sc.Text())
	}
	if err := sc.Err(); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}

// cmdTop renders a one-shot text dashboard from /metrics and /v1/rounds.
func cmdTop(c *client, args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	nRounds := fs.Int("rounds", 5, "number of recent rounds to show")
	shards := fs.Bool("shards", false, "fleet mode: -server points at a router; merge every shard's stats into one table")
	_ = fs.Parse(args)
	if *shards {
		return topShards(c)
	}

	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("server returned %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	m := map[string]float64{}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		sp := bytes.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(string(line[sp+1:]), "%g", &v); err == nil {
			m[string(line[:sp])] = v
		}
	}
	sum := func(prefix string) float64 {
		total := 0.0
		for k, v := range m {
			if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
				total += v
			}
		}
		return total
	}
	completed := m["tetriserve_completed_total"]
	met := m["tetriserve_slo_met_total"]
	sar := 0.0
	if completed > 0 {
		sar = met / completed
	}
	fmt.Printf("requests   %6.0f   completed %6.0f   dropped %4.0f   SLO %.2f\n",
		m["tetriserve_requests_total"], completed, sum("tetriserve_dropped_total"), sar)
	fmt.Printf("queue      %6.0f   running   %6.0f   gpus %2.0f (failed %.0f)   busy %.1fs\n",
		m["tetriserve_queue_depth"], m["tetriserve_running_requests"],
		m["tetriserve_gpus"], m["tetriserve_failed_gpus"],
		m["tetriserve_gpu_busy_seconds_total"])
	fmt.Printf("plans      %6.0f   rejected  %6.0f   rounds %5.0f   trace-drops %.0f\n",
		m["tetriserve_plan_calls_total"], m["tetriserve_plan_rejected_total"],
		m["tetriserve_round_ticks_total"], m["tetriserve_trace_dropped_events_total"])

	var rounds []struct {
		Seq           uint64  `json:"seq"`
		AtUS          int64   `json:"at_us"`
		PlanLatencyUS float64 `json:"plan_latency_us"`
		Pending       int     `json:"pending"`
		Running       int     `json:"running"`
		FreeGPUs      int     `json:"free_gpus"`
		Rejected      string  `json:"rejected,omitempty"`
		Decisions     []struct {
			Request         int    `json:"request"`
			Resolution      string `json:"resolution"`
			Degree          int    `json:"degree"`
			Steps           int    `json:"steps"`
			DeadlineSlackUS int64  `json:"deadline_slack_us"`
			Survives        bool   `json:"survives"`
		} `json:"decisions"`
	}
	if err := c.getJSON(fmt.Sprintf("/v1/rounds?n=%d", *nRounds), &rounds); err != nil {
		return err
	}
	if len(rounds) > 0 {
		fmt.Println("\nrecent rounds:")
	}
	for _, r := range rounds {
		fmt.Printf("  #%d t=%s plan=%.0fµs pending=%d running=%d free=%d",
			r.Seq, time.Duration(r.AtUS)*time.Microsecond, r.PlanLatencyUS,
			r.Pending, r.Running, r.FreeGPUs)
		if r.Rejected != "" {
			fmt.Printf(" REJECTED(%s)", r.Rejected)
		}
		fmt.Println()
		for _, d := range r.Decisions {
			verdict := "late"
			if d.Survives {
				verdict = "ok"
			}
			fmt.Printf("    req %d %s sp=%d steps=%d slack=%s %s\n",
				d.Request, d.Resolution, d.Degree, d.Steps,
				time.Duration(d.DeadlineSlackUS)*time.Microsecond, verdict)
		}
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  tetrictl [-server URL] submit [-prompt P] [-size 256|512|1024|2048] [-slo-ms N] [-wait]
  tetrictl [-server URL] status <job-id>
  tetrictl [-server URL] stats
  tetrictl [-server URL] load [-n N] [-rate R] [-mix uniform|skewed] [-speedup S] [-seed N]
  tetrictl [-server URL] tail [-for D]
  tetrictl [-server URL] top [-rounds N] [-shards]
  tetrictl [-server URL] trace <trace-id | request-id>
  tetrictl [-server URL] fleet [-history N]`)
	_ = model.StandardResolutions // documented sizes come from the model package
}
