package main

// Fleet-facing subcommands: `trace` renders a request's span timeline,
// `fleet` the router's fleet-wide health document, and `top -shards` the
// merged per-shard dashboard. All three work against either a router
// (-server points at the router) or, for `trace`, a single shard — the
// endpoint shape is identical.

import (
	"flag"
	"fmt"
	"sort"
	"strings"
	"time"

	"tetriserve/internal/lifecycle"
	"tetriserve/internal/tablefmt"
)

func cmdTrace(c *client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: tetrictl trace <trace-id | request-id>")
	}
	var tl lifecycle.Timeline
	if err := c.getJSON("/v1/requests/"+args[0], &tl); err != nil {
		return err
	}
	verdict := "in flight"
	switch {
	case tl.Dropped:
		verdict = fmt.Sprintf("DROPPED (%s)", tl.Cause)
	case tl.Done && tl.Met:
		verdict = "met SLO"
	case tl.Done:
		verdict = "MISSED SLO"
	}
	fmt.Printf("trace %s  request %d  class %s", tl.TraceID, tl.ID, tl.Class)
	if tl.Tenant != "" {
		fmt.Printf("  tenant %s", tl.Tenant)
	}
	if tl.Shard != "" {
		fmt.Printf("  shard %s", tl.Shard)
	}
	fmt.Printf("\narrival %s  deadline %s  slo %s  %s\n",
		us(tl.ArrivalUS), us(tl.DeadlineUS), us(tl.SLOUS), verdict)
	if tl.ElidedSteps > 0 {
		fmt.Printf("steps elided via cache: %d\n", tl.ElidedSteps)
	}

	fmt.Println("\ntimeline:")
	for _, s := range tl.Spans {
		fmt.Printf("  %12s  %-9s", us(s.StartUS), s.Kind)
		if d := s.Duration(); d > 0 {
			fmt.Printf("  %10s", d)
		} else {
			fmt.Printf("  %10s", "·")
		}
		switch s.Kind {
		case lifecycle.SpanCompute:
			fmt.Printf("  steps=%d sp=%d gpus=%v", s.Steps, s.Degree, s.GPUs)
			if s.Batched {
				fmt.Print(" batched")
			}
			if s.ElidedSteps > 0 {
				fmt.Printf(" elided=%d", s.ElidedSteps)
			}
		}
		if s.Cause != "" {
			fmt.Printf("  cause=%s", s.Cause)
		}
		fmt.Println()
	}

	phases := tl.PhaseSeconds()
	if len(phases) > 0 {
		fmt.Println("\nphase decomposition:")
		kinds := make([]string, 0, len(phases))
		total := 0.0
		for k, v := range phases {
			kinds = append(kinds, string(k))
			total += v
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			v := phases[lifecycle.SpanKind(k)]
			fmt.Printf("  %-9s %10.3fms  %5.1f%%\n", k, v*1e3, 100*v/total)
		}
	}
	return nil
}

// fleetDoc mirrors the router's GET /v1/fleet response (decoded loosely so
// the CLI tolerates additions).
type fleetDoc struct {
	Router struct {
		Decisions       int     `json:"decisions"`
		Routed          int     `json:"routed"`
		Infeasible      int     `json:"infeasible"`
		Shed            int     `json:"shed"`
		EarlyRejectRate float64 `json:"early_reject_rate"`
	} `json:"router"`
	Shards []struct {
		Name       string  `json:"name"`
		Reachable  bool    `json:"reachable"`
		Error      string  `json:"error"`
		QueueDepth int     `json:"queue_depth"`
		Attainment float64 `json:"attainment"`
		Stats      struct {
			Completed int     `json:"completed"`
			MetSLO    int     `json:"met_slo"`
			Running   int     `json:"running"`
			Dropped   int     `json:"dropped"`
			GPUBusyS  float64 `json:"gpu_busy_seconds"`
			Resizes   int     `json:"resizes"`
			Capacity  []int   `json:"capacity_gpus"`
		} `json:"stats"`
	} `json:"shards"`
	Rebalancer *struct {
		Moves     int   `json:"moves"`
		GPUCounts []int `json:"gpu_counts"`
		History   []struct {
			AtUnixMS int64  `json:"at_unix_ms"`
			From     string `json:"from"`
			To       string `json:"to"`
			FromGPUs int    `json:"from_gpus"`
			ToGPUs   int    `json:"to_gpus"`
		} `json:"history"`
	} `json:"rebalancer"`
}

func cmdFleet(c *client, args []string) error {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	nHist := fs.Int("history", 5, "rebalance history entries to show")
	_ = fs.Parse(args)

	var doc fleetDoc
	if err := c.getJSON("/v1/fleet", &doc); err != nil {
		return err
	}
	fmt.Printf("router: %d decisions  %d routed  %d infeasible  %d shed  early-reject %.2f\n",
		doc.Router.Decisions, doc.Router.Routed, doc.Router.Infeasible, doc.Router.Shed,
		doc.Router.EarlyRejectRate)

	tb := tablefmt.New("shards", "shard", "up", "queue", "running", "completed", "dropped", "SLO", "busy s", "gpus")
	for _, s := range doc.Shards {
		up := "yes"
		if !s.Reachable {
			up = "NO"
		}
		tb.AddRow(s.Name, up,
			fmt.Sprint(s.QueueDepth), fmt.Sprint(s.Stats.Running),
			fmt.Sprint(s.Stats.Completed), fmt.Sprint(s.Stats.Dropped),
			fmt.Sprintf("%.2f", s.Attainment), fmt.Sprintf("%.1f", s.Stats.GPUBusyS),
			fmt.Sprint(len(s.Stats.Capacity)))
	}
	fmt.Print(tb.String())

	if rb := doc.Rebalancer; rb != nil {
		fmt.Printf("\nrebalancer: %d moves, gpu counts %v\n", rb.Moves, rb.GPUCounts)
		hist := rb.History
		if len(hist) > *nHist {
			hist = hist[len(hist)-*nHist:]
		}
		for _, h := range hist {
			fmt.Printf("  %s  %s → %s  (%d → %d GPUs)\n",
				time.UnixMilli(h.AtUnixMS).Format(time.TimeOnly), h.From, h.To, h.FromGPUs, h.ToGPUs)
		}
	}
	return nil
}

// topShards renders the `top -shards` mode: the router's admission stats
// merged with every shard's /v1/stats into one table.
func topShards(c *client) error {
	var doc fleetDoc
	if err := c.getJSON("/v1/fleet", &doc); err != nil {
		return err
	}
	fmt.Printf("router     %6d decisions   routed %6d   rejected %4d\n",
		doc.Router.Decisions, doc.Router.Routed, doc.Router.Infeasible+doc.Router.Shed)

	tb := tablefmt.New("", "shard", "queue", "running", "completed", "met", "dropped", "SLO", "busy s", "resizes")
	totals := struct{ q, run, done, met, drop int }{}
	for _, s := range doc.Shards {
		if !s.Reachable {
			tb.AddRow(s.Name, "-", "-", "-", "-", "-", "-", "-", "-")
			continue
		}
		tb.AddRow(s.Name,
			fmt.Sprint(s.QueueDepth), fmt.Sprint(s.Stats.Running),
			fmt.Sprint(s.Stats.Completed), fmt.Sprint(s.Stats.MetSLO),
			fmt.Sprint(s.Stats.Dropped), fmt.Sprintf("%.2f", s.Attainment),
			fmt.Sprintf("%.1f", s.Stats.GPUBusyS), fmt.Sprint(s.Stats.Resizes))
		totals.q += s.QueueDepth
		totals.run += s.Stats.Running
		totals.done += s.Stats.Completed
		totals.met += s.Stats.MetSLO
		totals.drop += s.Stats.Dropped
	}
	fleetSLO := 0.0
	if totals.done > 0 {
		fleetSLO = float64(totals.met) / float64(totals.done)
	}
	tb.AddRow("fleet",
		fmt.Sprint(totals.q), fmt.Sprint(totals.run), fmt.Sprint(totals.done),
		fmt.Sprint(totals.met), fmt.Sprint(totals.drop), fmt.Sprintf("%.2f", fleetSLO), "", "")
	out := tb.String()
	// Drop the blank title line the empty-titled table renders with.
	fmt.Print(strings.TrimPrefix(out, "\n"))
	return nil
}

func us(v int64) string { return fmt.Sprint(time.Duration(v) * time.Microsecond) }
