// Package gantt renders GPU-occupancy timelines from simulation run logs as
// ASCII charts — the textual analogue of the paper's Figure 1 and Figure 6
// schedule diagrams. One row per GPU, one column per time bucket, one rune
// per request.
package gantt

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/workload"
)

// Config controls rendering.
type Config struct {
	// Width is the number of time columns (default 80).
	Width int
	// From/To bound the rendered window; zero To means the log's end.
	From, To time.Duration
	// Runes assigns request IDs to glyphs; unassigned requests cycle
	// through digits and letters.
	Runes map[workload.RequestID]rune
}

// Render draws the run log of a simulation result.
func Render(res *control.Result, cfg Config) string {
	if cfg.Width <= 0 {
		cfg.Width = 80
	}
	to := cfg.To
	if to == 0 {
		for _, r := range res.Runs {
			if r.End > to {
				to = r.End
			}
		}
	}
	if to <= cfg.From {
		return "(empty timeline)\n"
	}
	span := to - cfg.From
	bucket := span / time.Duration(cfg.Width)
	if bucket <= 0 {
		bucket = time.Millisecond
	}

	glyphs := cfg.Runes
	if glyphs == nil {
		glyphs = map[workload.RequestID]rune{}
	}
	const palette = "123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
	next := 0
	glyphFor := func(id workload.RequestID) rune {
		if g, ok := glyphs[id]; ok {
			return g
		}
		g := rune(palette[next%len(palette)])
		next++
		glyphs[id] = g
		return g
	}

	// rows[gpu][col] = glyph.
	rows := make([][]rune, res.NGPU)
	for g := range rows {
		rows[g] = []rune(strings.Repeat(".", cfg.Width))
	}
	order := make([]int, len(res.Runs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return res.Runs[order[i]].Start < res.Runs[order[j]].Start })
	for _, i := range order {
		r := &res.Runs[i]
		if r.End <= cfg.From || r.Start >= to {
			continue // outside the window: not drawn, not in the legend
		}
		glyph := '#' // batched block
		if members := res.RunRequests(i); len(members) == 1 {
			glyph = glyphFor(members[0])
		}
		c0 := int((r.Start - cfg.From) / bucket)
		c1 := int((r.End - cfg.From) / bucket)
		if c1 <= c0 {
			c1 = c0 + 1
		}
		for c := c0; c < c1 && c < cfg.Width; c++ {
			if c < 0 {
				continue
			}
			for _, gpu := range r.GPUs() {
				if int(gpu) < len(rows) {
					rows[gpu][c] = glyph
				}
			}
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "time %s .. %s (one column ≈ %s)\n",
		cfg.From.Round(time.Millisecond), to.Round(time.Millisecond), bucket.Round(time.Millisecond))
	for g := res.NGPU - 1; g >= 0; g-- {
		fmt.Fprintf(&sb, "GPU%d |%s|\n", g, string(rows[g]))
	}
	// Legend sorted by request id.
	ids := make([]workload.RequestID, 0, len(glyphs))
	for id := range glyphs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) > 0 {
		sb.WriteString("legend:")
		for _, id := range ids {
			fmt.Fprintf(&sb, " %c=req%d", glyphs[id], id)
		}
		sb.WriteString("  #=batched  .=idle\n")
	}
	return sb.String()
}
