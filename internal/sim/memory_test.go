package sim

import (
	"runtime"
	"testing"
	"time"

	"tetriserve/internal/simgpu"
)

// allocBudgetPerRequest bounds the bytes RunSharded allocates per offered
// request on the fleet shape below. With result buffers grown by append the
// test measured 6.6 KB per request (Go 1.24, linux/amd64; the count is
// deterministic to a few bytes, 6.8 KB under -race). When every shard
// preallocated buffers sized to the whole trace it measured 9.4 KB. The
// budget sits between the two, so that preallocation cannot come back
// unnoticed; twice the measured value would not tell them apart. Since the
// lifecycle recorder keeps compact span records it measures 4.3 KB.
const allocBudgetPerRequest = 8 << 10

// recycledAllocBudgetPerRequest bounds the same harness with 256-timeline
// lifecycle rings, which 4 000 requests over four shards wrap about three
// times, so that most admissions reuse an evicted record. The test
// measures 3.4 KB per request there; a recorder that allocated a fresh
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
