// Package metrics computes the paper's evaluation quantities from a
// simulation result: SLO Attainment Ratio (overall and per resolution, the
// spider plots), end-to-end latency statistics and CDFs over completed
// requests, time-series SAR for the burst-stability plots, average
// parallelism degree timelines, and GPU utilization.
package metrics

import (
	"sort"
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/model"
	"tetriserve/internal/stats"
)

// SAR returns the SLO Attainment Ratio: the fraction of all requests
// (dropped included) that completed within their deadline.
func SAR(res *control.Result) float64 {
	if len(res.Outcomes) == 0 {
		return 0
	}
	met := 0
	for _, o := range res.Outcomes {
		if o.Met {
			met++
		}
	}
	return float64(met) / float64(len(res.Outcomes))
}

// SARByResolution returns per-resolution SAR — the spider-plot axes of
// Figures 4, 7 and 8.
func SARByResolution(res *control.Result) map[model.Resolution]float64 {
	met := map[model.Resolution]int{}
	total := map[model.Resolution]int{}
	for _, o := range res.Outcomes {
		total[o.Res]++
		if o.Met {
			met[o.Res]++
		}
	}
	out := make(map[model.Resolution]float64, len(total))
	for r, n := range total {
		out[r] = float64(met[r]) / float64(n)
	}
	return out
}

// CompletedLatencies returns end-to-end latencies in seconds over completed
// (non-dropped) requests — the Figure 9 population.
func CompletedLatencies(res *control.Result) []float64 {
	var xs []float64
	for _, o := range res.Outcomes {
		if !o.Dropped {
			xs = append(xs, o.Latency.Seconds())
		}
	}
	return xs
}

// MeanLatency returns the mean completed latency in seconds (Table 5).
func MeanLatency(res *control.Result) float64 {
	return stats.Mean(CompletedLatencies(res))
}

// LatencyCDF builds the empirical latency CDF over completed requests.
func LatencyCDF(res *control.Result) *stats.CDF {
	return stats.NewCDF(CompletedLatencies(res))
}

// P99Latency returns the 99th-percentile completed latency in seconds.
func P99Latency(res *control.Result) float64 {
	return stats.Percentile(CompletedLatencies(res), 99)
}

// TimeSeriesSAR computes SAR over a sliding window of completions/deadline
// expiries ordered by arrival time — Figure 10's stability view. Each point
// is (window-center seconds, SAR within the window).
//
// Windows are [t, t+window) at stride window/2, so consecutive windows
// overlap by half. The sweep is a single pass: both window edges only move
// forward over the arrival-sorted outcomes, and the met/total counts update
// incrementally — O(n log n) for the sort, O(n + points) for the sweep,
// instead of rescanning every outcome per point.
func TimeSeriesSAR(res *control.Result, window time.Duration) [][2]float64 {
	if len(res.Outcomes) == 0 || window <= 0 {
		return nil
	}
	outs := append([]control.Outcome(nil), res.Outcomes...)
	sort.Slice(outs, func(i, j int) bool { return outs[i].Arrival < outs[j].Arrival })
	end := outs[len(outs)-1].Arrival
	stride := window / 2
	if stride <= 0 {
		stride = window // sub-2ns windows cannot halve; don't spin forever
	}
	var pts [][2]float64
	// lo is the first outcome with Arrival >= t, hi the first with
	// Arrival >= t+window; outs[lo:hi] is the window population.
	lo, hi := 0, 0
	met, total := 0, 0
	for t := time.Duration(0); t <= end; t += stride {
		for lo < len(outs) && outs[lo].Arrival < t {
			total--
			if outs[lo].Met {
				met--
			}
			lo++
		}
		for hi < len(outs) && outs[hi].Arrival < t+window {
			total++
			if outs[hi].Met {
				met++
			}
			hi++
		}
		if total == 0 {
			continue
		}
		center := t + window/2
		pts = append(pts, [2]float64{center.Seconds(), float64(met) / float64(total)})
	}
	return pts
}

// DegreeTimeline returns, per resolution, (request arrival seconds,
// steps-weighted average SP degree) points — Figure 11's view of how
// TetriServe shapes parallelism per request over time.
func DegreeTimeline(res *control.Result) map[model.Resolution][][2]float64 {
	out := map[model.Resolution][][2]float64{}
	outs := append([]control.Outcome(nil), res.Outcomes...)
	sort.Slice(outs, func(i, j int) bool { return outs[i].Arrival < outs[j].Arrival })
	for _, o := range outs {
		if o.Dropped || o.AvgDegree == 0 {
			continue
		}
		out[o.Res] = append(out[o.Res], [2]float64{o.Arrival.Seconds(), o.AvgDegree})
	}
	return out
}

// MeanDegreeByResolution averages the per-request step-weighted degree.
func MeanDegreeByResolution(res *control.Result) map[model.Resolution]float64 {
	sum := map[model.Resolution]float64{}
	n := map[model.Resolution]int{}
	for _, o := range res.Outcomes {
		if o.Dropped || o.AvgDegree == 0 {
			continue
		}
		sum[o.Res] += o.AvgDegree
		n[o.Res]++
	}
	out := map[model.Resolution]float64{}
	for r, s := range sum {
		out[r] = s / float64(n[r])
	}
	return out
}

// Utilization returns GPU-busy seconds divided by (makespan × N).
func Utilization(res *control.Result) float64 {
	if res.Makespan <= 0 || res.NGPU == 0 {
		return 0
	}
	return res.GPUBusySeconds / (res.Makespan.Seconds() * float64(res.NGPU))
}

// GPUSecondsPerRequest returns mean GPU-seconds consumed per request.
func GPUSecondsPerRequest(res *control.Result) float64 {
	if len(res.Outcomes) == 0 {
		return 0
	}
	return res.GPUBusySeconds / float64(len(res.Outcomes))
}

// BatchedShare returns the fraction of executed blocks that were batched.
func BatchedShare(res *control.Result) float64 {
	if len(res.Runs) == 0 {
		return 0
	}
	b := 0
	for _, r := range res.Runs {
		if r.Batched {
			b++
		}
	}
	return float64(b) / float64(len(res.Runs))
}
