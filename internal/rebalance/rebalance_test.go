package rebalance

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"tetriserve/internal/control"
)

func loads(specs ...shardLoad) []shardLoad { return specs }

func TestDecideMovesFromIdleToOverloaded(t *testing.T) {
	m, ok := decide(loads(
		shardLoad{HealthyGPUs: 4, QueueGPUSeconds: 0, WorstSlack: time.Second},
		shardLoad{HealthyGPUs: 4, QueueGPUSeconds: 40, WorstSlack: -time.Second},
	))
	if !ok || m.From != 0 || m.To != 1 {
		t.Fatalf("move = %+v (ok %v), want 0→1", m, ok)
	}
}

func TestDecideBalancedFleetStaysPut(t *testing.T) {
	if m, ok := decide(loads(
		shardLoad{HealthyGPUs: 4, QueueGPUSeconds: 10, WorstSlack: -time.Second},
		shardLoad{HealthyGPUs: 4, QueueGPUSeconds: 11, WorstSlack: -time.Second},
	)); ok {
		t.Fatalf("balanced fleet moved: %+v", m)
	}
}

func TestDecideOnlyLateShardsReceive(t *testing.T) {
	// The heavy shard has a big queue but is comfortably meeting deadlines:
	// no receiver qualifies, so nothing moves.
	if m, ok := decide(loads(
		shardLoad{HealthyGPUs: 4, QueueGPUSeconds: 0, WorstSlack: time.Second},
		shardLoad{HealthyGPUs: 4, QueueGPUSeconds: 100, WorstSlack: time.Second},
	)); ok {
		t.Fatalf("moved GPUs to a shard that is meeting its deadlines: %+v", m)
	}
}

func TestDecideRespectsMinGPUs(t *testing.T) {
	if m, ok := decide(loads(
		shardLoad{HealthyGPUs: 1, QueueGPUSeconds: 0, WorstSlack: time.Second},
		shardLoad{HealthyGPUs: 1, QueueGPUSeconds: 50, WorstSlack: -time.Second},
	)); ok {
		t.Fatalf("donor at the one-GPU floor still donated: %+v", m)
	}
}

func TestDecideNeverSwapsOverload(t *testing.T) {
	// Both shards are drowning; taking a GPU from one would just swap who is
	// worst. The policy must hold still rather than thrash.
	if m, ok := decide(loads(
		shardLoad{HealthyGPUs: 2, QueueGPUSeconds: 60, WorstSlack: -time.Second},
		shardLoad{HealthyGPUs: 1, QueueGPUSeconds: 40, WorstSlack: -2 * time.Second},
	)); ok {
		t.Fatalf("policy swapped overload: %+v", m)
	}
}

func TestDecideZeroCapacityShardWithWorkReceives(t *testing.T) {
	// A shard holding work but no devices has infinite drain time: it must
	// win receivership over any finite-drain shard.
	m, ok := decide(loads(
		shardLoad{HealthyGPUs: 4, QueueGPUSeconds: 1, WorstSlack: time.Second},
		shardLoad{HealthyGPUs: 0, QueueGPUSeconds: 1, WorstSlack: -time.Second},
	))
	if !ok || m.From != 0 || m.To != 1 {
		t.Fatalf("move = %+v (ok %v), want 0→1", m, ok)
	}
}

func TestDecideTiesBreakToLowestIndex(t *testing.T) {
	m, ok := decide(loads(
		shardLoad{HealthyGPUs: 4, QueueGPUSeconds: 0, WorstSlack: time.Second},
		shardLoad{HealthyGPUs: 4, QueueGPUSeconds: 0, WorstSlack: time.Second},
		shardLoad{HealthyGPUs: 4, QueueGPUSeconds: 40, WorstSlack: -time.Second},
		shardLoad{HealthyGPUs: 4, QueueGPUSeconds: 40, WorstSlack: -time.Second},
	))
	if !ok || m.From != 0 || m.To != 2 {
		t.Fatalf("move = %+v (ok %v), want deterministic 0→2", m, ok)
	}
}

// fleet is a scripted set of shards for Round: fixed probe answers (nil =
// unreachable) and per-shard resize errors, with every resize recorded.
type fleet struct {
	probes    [][]control.Feasibility
	resizeErr []error
	resizes   [][]int
}

func newFleet(probes ...[]control.Feasibility) *fleet {
	return &fleet{probes: probes, resizeErr: make([]error, len(probes)), resizes: make([][]int, len(probes))}
}

func (f *fleet) probe(i int) []control.Feasibility { return f.probes[i] }

func (f *fleet) resize(i, n int) error {
	f.resizes[i] = append(f.resizes[i], n)
	return f.resizeErr[i]
}

var (
	idle = []control.Feasibility{{Slack: time.Minute}}
	late = []control.Feasibility{{Slack: -time.Second, QueueGPUSeconds: 1e6}}
)

func mustLedger(t *testing.T, initial, caps []int) *Ledger {
	t.Helper()
	l, err := NewLedger(initial, caps)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestRoundMovesOneGPU(t *testing.T) {
	f := newFleet(idle, late)
	l := mustLedger(t, []int{4, 4}, []int{8, 8})
	m, ok, err := l.Round(f.probe, f.resize)
	if err != nil || !ok {
		t.Fatalf("ok %v, err %v: want a move", ok, err)
	}
	if want := (Move{From: 0, To: 1, FromGPUs: 3, ToGPUs: 5}); m != want {
		t.Fatalf("move = %+v, want %+v", m, want)
	}
	if got := l.Counts(); !reflect.DeepEqual(got, []int{3, 5}) {
		t.Fatalf("counts = %v, want [3 5]", got)
	}
	if !reflect.DeepEqual(f.resizes, [][]int{{3}, {5}}) {
		t.Fatalf("resizes = %v, want donor shrunk to 3, receiver grown to 5", f.resizes)
	}
}

func TestRoundGrowthStopsAtTopologyCap(t *testing.T) {
	f := newFleet(idle, late)
	l := mustLedger(t, []int{4, 2}, []int{8, 4})
	for i := 0; i < 5; i++ {
		if _, _, err := l.Round(f.probe, f.resize); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Counts(); !reflect.DeepEqual(got, []int{2, 4}) {
		t.Fatalf("counts = %v, want the receiver stopped at its cap of 4", got)
	}
	if len(f.resizes[1]) != 2 {
		t.Fatalf("receiver resizes = %v, want exactly two grows", f.resizes[1])
	}
}

func TestRoundFailedShrinkRollsBack(t *testing.T) {
	f := newFleet(idle, late)
	f.resizeErr[0] = errors.New("shrink refused")
	l := mustLedger(t, []int{4, 4}, []int{8, 8})
	if _, ok, err := l.Round(f.probe, f.resize); ok || err == nil {
		t.Fatalf("ok %v, err %v: want the shrink failure reported and no move", ok, err)
	}
	if got := l.Counts(); !reflect.DeepEqual(got, []int{4, 4}) {
		t.Fatalf("counts = %v, want [4 4] unchanged", got)
	}
	if len(f.resizes[1]) != 0 {
		t.Fatalf("receiver grown after a failed shrink: %v", f.resizes[1])
	}
}

func TestRoundFailedGrowRollsBack(t *testing.T) {
	f := newFleet(idle, late)
	f.resizeErr[1] = errors.New("grow refused")
	l := mustLedger(t, []int{4, 4}, []int{8, 8})
	if _, ok, err := l.Round(f.probe, f.resize); ok || err == nil {
		t.Fatalf("ok %v, err %v: want the grow failure reported and no move", ok, err)
	}
	if got := l.Counts(); !reflect.DeepEqual(got, []int{4, 4}) {
		t.Fatalf("counts = %v, want [4 4] restored", got)
	}
	if want := []int{3, 4}; !reflect.DeepEqual(f.resizes[0], want) {
		t.Fatalf("donor resizes = %v, want %v (shrink, then re-park)", f.resizes[0], want)
	}
}

// TestRoundSkipsUnansweredShard: a shard that answers no probe is neither
// donor nor receiver, whether it would look idle or has the fleet's largest
// ledger count.
func TestRoundSkipsUnansweredShard(t *testing.T) {
	f := newFleet(nil, idle, late, nil)
	l := mustLedger(t, []int{8, 4, 4, 1}, []int{8, 8, 8, 8})
	m, ok, err := l.Round(f.probe, f.resize)
	if err != nil || !ok || m.From != 1 || m.To != 2 {
		t.Fatalf("move = %+v, ok %v, err %v: want 1→2", m, ok, err)
	}
	if len(f.resizes[0]) != 0 || len(f.resizes[3]) != 0 {
		t.Fatalf("unanswered shard resized: %v", f.resizes)
	}
	f = newFleet(nil, late)
	l = mustLedger(t, []int{8, 1}, []int{8, 8})
	if m, ok, _ := l.Round(f.probe, f.resize); ok {
		t.Fatalf("an unanswered shard donated: %+v", m)
	}
}

func TestNewLedgerRejectsOutOfRange(t *testing.T) {
	for _, c := range []struct{ initial, caps []int }{
		{[]int{1}, []int{1, 2}},
		{[]int{-1}, []int{2}},
		{[]int{3}, []int{2}},
	} {
		if _, err := NewLedger(c.initial, c.caps); err == nil {
			t.Fatalf("NewLedger(%v, %v) accepted", c.initial, c.caps)
		}
	}
}

// TestLedgerCountsDuringRounds: Counts may be read from other goroutines
// while rounds apply moves, and always sees both sides of a move (run with
// -race).
func TestLedgerCountsDuringRounds(t *testing.T) {
	f := newFleet(idle, late)
	l := mustLedger(t, []int{100, 0}, []int{100, 100})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if _, _, err := l.Round(f.probe, f.resize); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		if c := l.Counts(); c[0]+c[1] != 100 {
			t.Fatalf("counts %v do not conserve the fleet's 100 GPUs", c)
		}
	}
	if got := l.Counts(); !reflect.DeepEqual(got, []int{50, 50}) {
		t.Fatalf("counts = %v after 50 rounds, want [50 50]", got)
	}
}
