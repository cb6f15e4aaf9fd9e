package server

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/model"
	"tetriserve/internal/workload"
)

// fakeShard is a ResizableShard whose probe answer and resize outcome are
// fixed by the test; it records every Resize it receives.
type fakeShard struct {
	name      string
	feas      control.Feasibility
	probeErr  error
	resizeErr error
	resizes   []int
}

func (s *fakeShard) Name() string { return s.name }

func (s *fakeShard) ProbeFeasibility(model.Resolution, int, time.Duration) (control.Feasibility, error) {
	return s.feas, s.probeErr
}

func (s *fakeShard) Submit(workload.Prompt, model.Resolution, time.Duration) (Job, error) {
	return Job{}, errors.New("fake shard takes no submissions")
}

func (s *fakeShard) Resize(n int) error {
	s.resizes = append(s.resizes, n)
	return s.resizeErr
}

// idleShard projects every class comfortably winnable on an empty queue.
func idleShard(name string) *fakeShard {
	return &fakeShard{name: name, feas: control.Feasibility{Slack: time.Minute}}
}

// lateShard projects every class late behind a large backlog.
func lateShard(name string) *fakeShard {
	return &fakeShard{name: name, feas: control.Feasibility{Slack: -time.Second, QueueGPUSeconds: 1e6}}
}

func newTestRebalancer(t *testing.T, shards []*fakeShard, initial, max []int) *LiveRebalancer {
	t.Helper()
	rs := make([]ResizableShard, len(shards))
	for i, s := range shards {
		rs[i] = s
	}
	r, err := NewLiveRebalancer(LiveRebalancerConfig{Shards: rs, InitialGPUs: initial, MaxGPUs: max})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestLiveRebalancerSkipsUnreachableShard: a shard that answers no probe is
// neither donor nor receiver, so a healthy idle shard still donates to the
// late one instead of every round ending on the unreachable shard's failed
// shrink.
func TestLiveRebalancerSkipsUnreachableShard(t *testing.T) {
	down := &fakeShard{name: "down", probeErr: errors.New("unreachable"), resizeErr: errors.New("unreachable")}
	donor, late := idleShard("idle"), lateShard("late")
	r := newTestRebalancer(t, []*fakeShard{down, donor, late}, []int{4, 4, 4}, []int{8, 8, 8})
	r.decide()
	if r.Moves() != 1 {
		t.Fatalf("moves = %d, want 1 from the healthy donor", r.Moves())
	}
	if got, want := r.Counts(), []int{4, 3, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("counts = %v, want %v", got, want)
	}
	if len(down.resizes) != 0 {
		t.Fatalf("unreachable shard was resized: %v", down.resizes)
	}
}

// TestLiveRebalancerFailedGrowRollsBack: when the receiver refuses to grow,
// the ledger is restored and the donor takes its GPU back.
func TestLiveRebalancerFailedGrowRollsBack(t *testing.T) {
	donor, late := idleShard("idle"), lateShard("late")
	late.resizeErr = errors.New("grow refused")
	r := newTestRebalancer(t, []*fakeShard{donor, late}, []int{4, 4}, []int{8, 8})
	r.decide()
	if got, want := r.Counts(), []int{4, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("counts = %v, want %v restored", got, want)
	}
	if want := []int{3, 4}; !reflect.DeepEqual(donor.resizes, want) {
		t.Fatalf("donor resizes = %v, want %v (shrink, then re-park)", donor.resizes, want)
	}
	if r.Moves() != 0 || len(r.History()) != 0 {
		t.Fatalf("moves = %d, history %v: a failed move must not be recorded", r.Moves(), r.History())
	}
}

// TestLiveRebalancerHistoryCapped: the move history keeps only the newest
// moveHistoryCap entries while Moves counts them all.
func TestLiveRebalancerHistoryCapped(t *testing.T) {
	donor, late := idleShard("idle"), lateShard("late")
	r := newTestRebalancer(t, []*fakeShard{donor, late}, []int{100, 0}, []int{100, 100})
	const rounds = moveHistoryCap + 6
	for i := 0; i < rounds; i++ {
		r.decide()
	}
	if r.Moves() != rounds {
		t.Fatalf("moves = %d, want %d", r.Moves(), rounds)
	}
	h := r.History()
	if len(h) != moveHistoryCap {
		t.Fatalf("history holds %d moves, want %d", len(h), moveHistoryCap)
	}
	if first, last := h[0], h[len(h)-1]; first.ToGPUs != rounds-moveHistoryCap+1 || last.ToGPUs != rounds {
		t.Fatalf("history spans receiver counts %d..%d, want the newest %d..%d",
			first.ToGPUs, last.ToGPUs, rounds-moveHistoryCap+1, rounds)
	}
}
