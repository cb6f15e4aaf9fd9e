package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"tetriserve/internal/model"
	"tetriserve/internal/sim"
	"tetriserve/internal/workload"
)

// mkResult builds a synthetic result for metric tests.
func mkResult(outcomes ...sim.Outcome) *sim.Result {
	return &sim.Result{SchedulerName: "test", NGPU: 8, Outcomes: outcomes}
}

func out(id int, res model.Resolution, arrival, latency time.Duration, met bool) sim.Outcome {
	return sim.Outcome{
		ID:         workload.RequestID(id),
		Res:        res,
		Arrival:    arrival,
		Deadline:   arrival + 2*time.Second,
		Completion: arrival + latency,
		Latency:    latency,
		Met:        met,
		AvgDegree:  2,
	}
}

func TestSAR(t *testing.T) {
	r := mkResult(
		out(1, model.Res256, 0, time.Second, true),
		out(2, model.Res256, 0, time.Second, true),
		out(3, model.Res512, 0, 3*time.Second, false),
		sim.Outcome{ID: 4, Res: model.Res512, Dropped: true},
	)
	if got := SAR(r); got != 0.5 {
		t.Fatalf("SAR = %v, want 0.5 (dropped counts as missed)", got)
	}
	if got := SAR(mkResult()); got != 0 {
		t.Fatalf("empty SAR = %v", got)
	}
}

func TestSARByResolution(t *testing.T) {
	r := mkResult(
		out(1, model.Res256, 0, time.Second, true),
		out(2, model.Res256, 0, time.Second, false),
		out(3, model.Res2048, 0, time.Second, true),
	)
	by := SARByResolution(r)
	if by[model.Res256] != 0.5 || by[model.Res2048] != 1.0 {
		t.Fatalf("per-resolution SAR = %v", by)
	}
}

func TestCompletedLatenciesExcludeDropped(t *testing.T) {
	r := mkResult(
		out(1, model.Res256, 0, time.Second, true),
		sim.Outcome{ID: 2, Res: model.Res256, Dropped: true},
	)
	lats := CompletedLatencies(r)
	if len(lats) != 1 || lats[0] != 1 {
		t.Fatalf("latencies = %v", lats)
	}
	if MeanLatency(r) != 1 {
		t.Fatalf("mean latency = %v", MeanLatency(r))
	}
}

func TestLatencyCDFAndP99(t *testing.T) {
	var outs []sim.Outcome
	for i := 0; i < 100; i++ {
		outs = append(outs, out(i, model.Res512, 0, time.Duration(i+1)*time.Second, true))
	}
	r := mkResult(outs...)
	cdf := LatencyCDF(r)
	if got := cdf.At(50); math.Abs(got-0.5) > 0.01 {
		t.Fatalf("CDF(50s) = %v", got)
	}
	if got := P99Latency(r); got < 98 || got > 100 {
		t.Fatalf("P99 = %v", got)
	}
}

func TestTimeSeriesSAR(t *testing.T) {
	r := mkResult(
		out(1, model.Res256, 0, time.Second, true),
		out(2, model.Res256, 30*time.Second, time.Second, true),
		out(3, model.Res256, 70*time.Second, time.Second, false),
		out(4, model.Res256, 80*time.Second, time.Second, false),
	)
	pts := TimeSeriesSAR(r, time.Minute)
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	// First window [0,60s) holds two met requests → SAR 1.
	if pts[0][1] != 1 {
		t.Fatalf("first window SAR = %v, want 1", pts[0][1])
	}
	last := pts[len(pts)-1]
	if last[1] != 0 {
		t.Fatalf("last window SAR = %v, want 0", last[1])
	}
	if TimeSeriesSAR(mkResult(), time.Minute) != nil {
		t.Fatal("empty result should yield nil series")
	}
}

func TestDegreeTimeline(t *testing.T) {
	r := mkResult(
		out(1, model.Res256, 5*time.Second, time.Second, true),
		out(2, model.Res2048, 10*time.Second, time.Second, true),
	)
	tl := DegreeTimeline(r)
	if len(tl[model.Res256]) != 1 || tl[model.Res256][0][0] != 5 {
		t.Fatalf("timeline = %v", tl)
	}
}

func TestMeanDegreeByResolution(t *testing.T) {
	a := out(1, model.Res256, 0, time.Second, true)
	a.AvgDegree = 1
	b := out(2, model.Res256, 0, time.Second, true)
	b.AvgDegree = 3
	r := mkResult(a, b)
	if got := MeanDegreeByResolution(r)[model.Res256]; got != 2 {
		t.Fatalf("mean degree = %v, want 2", got)
	}
}

func TestUtilization(t *testing.T) {
	r := mkResult(out(1, model.Res256, 0, time.Second, true))
	r.Makespan = 10 * time.Second
	r.GPUBusySeconds = 40
	if got := Utilization(r); got != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
	r.Makespan = 0
	if Utilization(r) != 0 {
		t.Fatal("zero makespan should yield zero utilization")
	}
}

func TestGPUSecondsPerRequest(t *testing.T) {
	r := mkResult(
		out(1, model.Res256, 0, time.Second, true),
		out(2, model.Res256, 0, time.Second, true),
	)
	r.GPUBusySeconds = 10
	if got := GPUSecondsPerRequest(r); got != 5 {
		t.Fatalf("GPU-s/request = %v", got)
	}
}

func TestBatchedShare(t *testing.T) {
	r := mkResult(out(1, model.Res256, 0, time.Second, true))
	r.Runs = []sim.RunRecord{{Batched: true}, {Batched: false}, {Batched: true}, {Batched: false}}
	if got := BatchedShare(r); got != 0.5 {
		t.Fatalf("batched share = %v", got)
	}
	r.Runs = nil
	if BatchedShare(r) != 0 {
		t.Fatal("no runs should yield zero share")
	}
}

func TestTimeSeriesSARZeroWindow(t *testing.T) {
	r := mkResult(out(1, model.Res256, 0, time.Second, true))
	if TimeSeriesSAR(r, 0) != nil {
		t.Fatal("zero window should yield nil")
	}
}

// naiveTimeSeriesSAR is the reference O(n·points) rescan the two-pointer
// sweep replaced; the equivalence test pins the rewrite to it.
func naiveTimeSeriesSAR(res *sim.Result, window time.Duration) [][2]float64 {
	if len(res.Outcomes) == 0 || window <= 0 {
		return nil
	}
	outs := append([]sim.Outcome(nil), res.Outcomes...)
	sort.Slice(outs, func(i, j int) bool { return outs[i].Arrival < outs[j].Arrival })
	end := outs[len(outs)-1].Arrival
	var pts [][2]float64
	for t := time.Duration(0); t <= end; t += window / 2 {
		lo, hi := t, t+window
		met, total := 0, 0
		for _, o := range outs {
			if o.Arrival >= lo && o.Arrival < hi {
				total++
				if o.Met {
					met++
				}
			}
		}
		if total == 0 {
			continue
		}
		center := (lo + hi) / 2
		pts = append(pts, [2]float64{center.Seconds(), float64(met) / float64(total)})
	}
	return pts
}

// sarResult builds a deterministic pseudo-random result: bursty arrivals
// (gaps between bursts leave empty windows) with mixed met/missed outcomes.
func sarResult(n int) *sim.Result {
	rng := rand.New(rand.NewSource(42))
	outs := make([]sim.Outcome, n)
	at := time.Duration(0)
	for i := range outs {
		if rng.Intn(20) == 0 {
			at += time.Duration(rng.Intn(300)) * time.Second // inter-burst gap
		}
		at += time.Duration(rng.Intn(2000)) * time.Millisecond
		outs[i] = out(i, model.Res512, at, time.Second, rng.Intn(3) > 0)
	}
	// Shuffle so the implementations' internal sort is exercised.
	rng.Shuffle(len(outs), func(i, j int) { outs[i], outs[j] = outs[j], outs[i] })
	return mkResult(outs...)
}

func TestTimeSeriesSARMatchesNaiveRescan(t *testing.T) {
	for _, window := range []time.Duration{2 * time.Second, time.Minute, 10 * time.Minute} {
		r := sarResult(500)
		got := TimeSeriesSAR(r, window)
		want := naiveTimeSeriesSAR(r, window)
		if len(got) != len(want) {
			t.Fatalf("window %v: %d points, want %d", window, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("window %v point %d: got %v, want %v", window, i, got[i], want[i])
			}
		}
	}
}

// BenchmarkTimeSeriesSAR guards the two-pointer sweep: with many points per
// outcome span the naive rescan is quadratic-ish, the sweep stays linear.
func BenchmarkTimeSeriesSAR(b *testing.B) {
	r := sarResult(5000)
	window := 30 * time.Second
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if pts := TimeSeriesSAR(r, window); len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}
