package core

import (
	"reflect"
	"testing"
	"time"

	"tetriserve/internal/model"
	"tetriserve/internal/stats"
	"tetriserve/internal/workload"
)

// mkCandidate builds a synthetic candidate with explicit options.
func mkCandidate(id int, surviveNone bool, opts ...option) *candidate {
	st := mkState(id, model.Res512, 50, 0, 10*time.Second)
	return &candidate{st: st, options: opts, surviveNone: surviveNone, tmin: 20 * time.Millisecond}
}

func opt(degree, q int, survive bool) option {
	return option{degree: degree, planSteps: 50, stepTime: 25 * time.Millisecond, q: q, survive: survive}
}

// bruteForceBest enumerates every option combination and returns the best
// achievable DP value under the capacity.
func bruteForceBest(cands []*candidate, capacity int) int64 {
	best := int64(-1)
	var rec func(i int, width int, value int64)
	rec = func(i, width int, value int64) {
		if width > capacity {
			return
		}
		if i == len(cands) {
			if value > best {
				best = value
			}
			return
		}
		rec(i+1, width, value+noneValue(cands[i]))
		for _, o := range cands[i].options {
			rec(i+1, width+o.degree, value+optionValue(o))
		}
	}
	rec(0, 0, 0)
	return best
}

// dpValue computes the value of the DP's selection.
func dpValue(sels []selection) int64 {
	v := int64(0)
	for _, s := range sels {
		if s.optIdx < 0 {
			v += noneValue(s.cand)
		} else {
			v += optionValue(s.cand.options[s.optIdx])
		}
	}
	return v
}

func dpWidth(sels []selection) int {
	w := 0
	for _, s := range sels {
		if s.optIdx >= 0 {
			w += s.cand.options[s.optIdx].degree
		}
	}
	return w
}

func TestDPEmptyInput(t *testing.T) {
	s := newTestScheduler(t)
	if sels := s.packDP(nil, 8); len(sels) != 0 {
		t.Fatal("empty candidate list should yield empty selection")
	}
}

func TestDPRespectsCapacity(t *testing.T) {
	s := newTestScheduler(t)
	cands := []*candidate{
		mkCandidate(1, false, opt(8, 5, true)),
		mkCandidate(2, false, opt(8, 5, true)),
	}
	sels := s.packDP(cands, 8)
	if w := dpWidth(sels); w > 8 {
		t.Fatalf("DP exceeded capacity: width %d", w)
	}
	// Exactly one of the two width-8 options can run.
	ran := 0
	for _, sel := range sels {
		if sel.optIdx >= 0 {
			ran++
		}
	}
	if ran != 1 {
		t.Fatalf("ran %d of two exclusive requests, want 1", ran)
	}
}

func TestDPMaximizesSurvivors(t *testing.T) {
	s := newTestScheduler(t)
	// One request with a wide surviving option vs two with narrow ones:
	// the DP must pick the two.
	cands := []*candidate{
		mkCandidate(1, false, opt(8, 5, true)),
		mkCandidate(2, false, opt(4, 5, true)),
		mkCandidate(3, false, opt(4, 5, true)),
	}
	sels := s.packDP(cands, 8)
	survivors := 0
	for _, sel := range sels {
		if sel.optIdx >= 0 && sel.cand.options[sel.optIdx].survive {
			survivors++
		} else if sel.optIdx < 0 && sel.cand.surviveNone {
			survivors++
		}
	}
	if survivors != 2 {
		t.Fatalf("DP found %d survivors, want 2 (the two width-4 requests)", survivors)
	}
}

func TestDPPrefersRunningOnTies(t *testing.T) {
	s := newTestScheduler(t)
	// Request survives either way; with free capacity the DP should still
	// run it (work conservation).
	cands := []*candidate{mkCandidate(1, true, opt(2, 5, true))}
	sels := s.packDP(cands, 8)
	if sels[0].optIdx < 0 {
		t.Fatal("DP should prefer progress when survival is unaffected")
	}
}

func TestDPPicksCheapestAmongEqualSurvival(t *testing.T) {
	s := newTestScheduler(t)
	// Both options survive; the reconstruction picks the smallest
	// capacity achieving the max value, i.e. the 2-GPU option.
	cands := []*candidate{mkCandidate(1, false, opt(2, 5, true), opt(8, 5, true))}
	sels := s.packDP(cands, 8)
	if sels[0].optIdx != 0 {
		t.Fatalf("DP should prefer the narrower surviving option, picked %d", sels[0].optIdx)
	}
}

// TestDPMatchesBruteForce cross-checks the knapsack against exhaustive
// enumeration on randomized small instances.
func TestDPMatchesBruteForce(t *testing.T) {
	s := newTestScheduler(t)
	rng := stats.NewRNG(99)
	degrees := []int{1, 2, 4, 8}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(5)
		cands := make([]*candidate, 0, n)
		for i := 0; i < n; i++ {
			nOpts := rng.Intn(3)
			var opts []option
			seen := map[int]bool{}
			for j := 0; j <= nOpts; j++ {
				d := degrees[rng.Intn(len(degrees))]
				if seen[d] {
					continue
				}
				seen[d] = true
				opts = append(opts, opt(d, 1+rng.Intn(5), rng.Float64() < 0.6))
			}
			cands = append(cands, mkCandidate(i, rng.Float64() < 0.3, opts...))
		}
		capacity := rng.Intn(9)
		sels := s.packDP(cands, capacity)
		if got, want := dpValue(sels), bruteForceBest(cands, capacity); got != want {
			t.Fatalf("trial %d: DP value %d != brute force %d (capacity %d)", trial, got, want, capacity)
		}
		if dpWidth(sels) > capacity {
			t.Fatalf("trial %d: width %d exceeds capacity %d", trial, dpWidth(sels), capacity)
		}
		if len(sels) != len(cands) {
			t.Fatalf("trial %d: selection for %d of %d candidates", trial, len(sels), len(cands))
		}
	}
}

func TestDPNegativeCapacity(t *testing.T) {
	s := newTestScheduler(t)
	cands := []*candidate{mkCandidate(1, true, opt(1, 5, true))}
	sels := s.packDP(cands, -3)
	if sels[0].optIdx != -1 {
		t.Fatal("with no capacity everything must be 'none'")
	}
}

func TestDPZeroCapacity(t *testing.T) {
	s := newTestScheduler(t)
	cands := []*candidate{
		mkCandidate(1, true, opt(1, 5, true)),
		mkCandidate(2, false, opt(1, 5, true), opt(2, 5, true)),
	}
	sels := s.packDP(cands, 0)
	if len(sels) != len(cands) {
		t.Fatalf("got %d selections, want %d", len(sels), len(cands))
	}
	for _, sel := range sels {
		if sel.optIdx != -1 {
			t.Fatal("zero capacity must select 'none' for every candidate")
		}
	}
}

func TestDPAllOptionsWiderThanCapacity(t *testing.T) {
	s := newTestScheduler(t)
	cands := []*candidate{
		mkCandidate(1, false, opt(4, 5, true), opt(8, 5, true)),
		mkCandidate(2, true, opt(4, 5, true)),
	}
	sels := s.packDP(cands, 2)
	for _, sel := range sels {
		if sel.optIdx != -1 {
			t.Fatalf("no option fits in 2 GPUs; candidate %d still ran option %d",
				sel.cand.st.Req.ID, sel.optIdx)
		}
	}
}

// TestDPManyOptionsBackPointer is the int8→int16 regression test: with more
// than 127 options per candidate, the old int8 back-pointer rows silently
// overflowed and reconstructed garbage. Option index 150 is the unique
// surviving choice and must be selected intact.
func TestDPManyOptionsBackPointer(t *testing.T) {
	s := newTestScheduler(t)
	opts := make([]option, 151)
	for i := range opts {
		opts[i] = opt(1, 5, false)
	}
	opts[150] = opt(1, 5, true) // only the 151st option survives
	cands := []*candidate{mkCandidate(1, false, opts...)}
	sels := s.packDP(cands, 8)
	if sels[0].optIdx != 150 {
		t.Fatalf("optIdx = %d, want 150 (back-pointer must hold indices > 127)", sels[0].optIdx)
	}
}

func TestDPSelectionOrderStable(t *testing.T) {
	s := newTestScheduler(t)
	cands := []*candidate{
		mkCandidate(1, false, opt(1, 5, true)),
		mkCandidate(2, false, opt(1, 5, true)),
		mkCandidate(3, false, opt(1, 5, true)),
	}
	sels := s.packDP(cands, 8)
	for i, sel := range sels {
		if sel.cand != cands[i] {
			t.Fatal("selections not in input order")
		}
	}
}

// TestZeroOptionPruning: excluding option-less candidates from the DP leaves
// the selection of every candidate that has options unchanged. Planning
// snapshots on the test profile never produce an option-less candidate, so
// synthetic ones are interleaved with the real ones.
func TestZeroOptionPruning(t *testing.T) {
	picks := func(sels []selection) map[workload.RequestID]int {
		m := map[workload.RequestID]int{}
		for _, sel := range sels {
			if len(sel.cand.options) > 0 {
				m[sel.cand.st.Req.ID] = sel.optIdx
			}
		}
		return m
	}
	full, pruned := newTestScheduler(t), newTestScheduler(t)
	rng := stats.NewRNG(31)
	for trial := 0; trial < 40; trial++ {
		ctx := randCtx(rng, 1+rng.Intn(12))
		var cands []*candidate
		for i, st := range ctx.Pending {
			if rng.Intn(2) == 0 {
				cands = append(cands, mkCandidate(1000+i, rng.Intn(2) == 0))
			}
			cands = append(cands, buildCand(full, ctx.Now, ctx.Now+full.tau, st))
		}
		cands = append(cands, mkCandidate(2000, true))

		capacity := ctx.Free.Count()
		want := picks(full.packDP(cands, capacity))
		kept := pruned.pruneCandidates(cands)
		if len(kept) != len(ctx.Pending) {
			t.Fatalf("trial %d: pruning kept %d of %d candidates with options", trial, len(kept), len(ctx.Pending))
		}
		if got := picks(pruned.packDP(kept, capacity)); !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: pruning changed the selection:\n unpruned: %v\n   pruned: %v", trial, want, got)
		}
	}
}
