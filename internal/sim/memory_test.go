package sim

import (
	"runtime"
	"testing"
	"time"

	"tetriserve/internal/core"
	"tetriserve/internal/lifecycle"
	"tetriserve/internal/simgpu"
)

// allocBudgetPerRequest bounds the bytes RunSharded allocates per offered
// request on the fleet shape below. With result buffers grown by append the
// test measured 6.6 KB per request (Go 1.24, linux/amd64; the count is
// deterministic to a few bytes, 6.8 KB under -race). When every shard
// preallocated buffers sized to the whole trace it measured 9.4 KB. The
// budget sits between the two, so that preallocation cannot come back
// unnoticed; twice the measured value would not tell them apart. Since the
// lifecycle recorder keeps compact span records it measured 4.4 KB, and
// since run records hold no member slice of their own, 3.8 KB (3 755 B).
// Since the recorder stores finalized timelines as headers over one span
// queue in fixed-size chunks and reuses its active timelines' storage, it
// measures 2.9 KB (2 941 B; 2 968 B under -race). The budget sits between
// the last two.
const allocBudgetPerRequest = 3328

// recycledAllocBudgetPerRequest bounds the same harness with 256-timeline
// lifecycle rings, which 4 000 requests over four shards wrap about three
// times, so that most admissions reuse an evicted record. The test
// measured 3.4 KB per request there, 2.8 KB since run records hold no
// member slice of their own, and 2.6 KB since finalized timelines are
// headers over one chunked span queue; a recorder that allocated a fresh
// timeline per request and grew its span slice as it went measured 6.4 KB.
// The budget sits between the two.
const recycledAllocBudgetPerRequest = 4608

// TestRunShardedAllocPerRequest is the memory regression guard for the
// sharded harness: four 2-GPU shards sliced from 8-GPU nodes, elastic
// rebalancing and lifecycle recording on (the sim-fleet shape), 4 000
// requests. A shard must cost what it serves, not what the trace holds.
// The default rings never fill at this size; the wrapping case holds the
// recorder to reusing what its ring evicts.
func TestRunShardedAllocPerRequest(t *testing.T) {
	trace := smallMixTrace(4000, 1, 30, 1.2)
	for _, tc := range []struct {
		name     string
		capacity int
		budget   uint64
	}{
		{"default-rings", 0, allocBudgetPerRequest},
		{"wrapping-rings", 256, recycledAllocBudgetPerRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			specs := shardSpecs(4, 8)
			for i := range specs {
				specs[i].Capacity = simgpu.MaskRange(0, 2)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			res, err := RunSharded(ShardedConfig{
				Model:             testMdl,
				Shards:            specs,
				Requests:          trace,
				Rebalance:         &RebalanceConfig{},
				Lifecycle:         true,
				LifecycleCapacity: tc.capacity,
				DropLateFactor:    4,
				MaxVirtualTime:    24 * time.Hour,
			})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Offered(); got != len(trace) {
				t.Fatalf("offered %d, want %d", got, len(trace))
			}
			perReq := (after.TotalAlloc - before.TotalAlloc) / uint64(len(trace))
			t.Logf("RunSharded allocated %d B per offered request", perReq)
			if perReq > tc.budget {
				t.Fatalf("RunSharded allocated %d B per offered request, budget %d", perReq, tc.budget)
			}
		})
	}
}

// retainedBudgetPerRequest bounds the heap the same fleet run's result keeps
// reachable per offered request once a collection has run. With run records
// that held their members in a slice, re-pointed into an arena whose
// outgrown backing arrays older records kept alive, the test measured
// 1761 B (Go 1.24, linux/amd64; deterministic to a few bytes, 1753 B under
// -race). Pointer-free records over one member-ID log measure 1491 B, with
// the lifecycle recorder's 4 000 timelines at about 1.24 KB each. Since the
// recorder keeps a finalized timeline as a header over an exact-length
// range of one span queue, it measures 768 B (776 B under -race). The
// budget sits between the last two.
const retainedBudgetPerRequest = 1100

// TestRunShardedRetainedPerRequest is the retained-memory guard for the same
// fleet shape: what the result keeps live after a GC, per offered request.
// The lifecycle rings hold most of it; the run log, which grows with every
// block the loops ran, is the part that grows with history.
func TestRunShardedRetainedPerRequest(t *testing.T) {
	trace := smallMixTrace(4000, 1, 30, 1.2)
	specs := shardSpecs(4, 8)
	for i := range specs {
		specs[i].Capacity = simgpu.MaskRange(0, 2)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := RunSharded(ShardedConfig{
		Model:          testMdl,
		Shards:         specs,
		Requests:       trace,
		Rebalance:      &RebalanceConfig{},
		Lifecycle:      true,
		DropLateFactor: 4,
		MaxVirtualTime: 24 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(res)
	perReq := int64(after.HeapAlloc-before.HeapAlloc) / int64(len(trace))
	t.Logf("RunSharded's result retains %d B per offered request", perReq)
	if perReq > retainedBudgetPerRequest {
		t.Fatalf("RunSharded's result retains %d B per offered request, budget %d", perReq, retainedBudgetPerRequest)
	}
}

// deepRetainedBudgetPerRequest bounds the heap a deep-queue run keeps
// reachable per request: the sim-backlog shape, whose timelines average
// about 14.5 spans, with a recorder whose ring holds every request. Without
// the recorder the run retains 379 B. A recorder that kept each timeline as
// a record with a span array of 16 or 32 and spare records for reuse
// measured 2 044 B (Go 1.24, linux/amd64); headers over an exact-length
// range of one span queue, with spare active storage trimmed to what is in
// flight, measure 1 120 B (the same under -race). The budget sits between
// the two.
const deepRetainedBudgetPerRequest = 1600

// TestRunBacklogRetainedPerRequest is the deep-queue twin of
// TestRunShardedRetainedPerRequest: one 8-GPU shard offered about twice what
// it serves, no drop policy, the lifecycle recorder retaining all 4 000
// timelines. What the result and the recorder keep live after a GC, per
// request, is mostly the timelines.
func TestRunBacklogRetainedPerRequest(t *testing.T) {
	reqs := backlogTrace()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec := lifecycle.NewRecorder(lifecycle.Config{Capacity: len(reqs)})
	res, err := Run(Config{
		Model: testMdl, Topo: testTopo, Profile: testProf, Requests: reqs,
		Scheduler:      core.NewScheduler(testProf, testTopo, core.DefaultConfig()),
		Hooks:          rec.Hooks(),
		MaxVirtualTime: 1000 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(res)
	runtime.KeepAlive(rec)
	perReq := int64(after.HeapAlloc-before.HeapAlloc) / int64(len(reqs))
	t.Logf("a deep-queue run retains %d B per request", perReq)
	if perReq > deepRetainedBudgetPerRequest {
		t.Fatalf("a deep-queue run retains %d B per request, budget %d", perReq, deepRetainedBudgetPerRequest)
	}
}
