package sim

import (
	"runtime"
	"testing"
	"time"

	"tetriserve/internal/simgpu"
)

// allocBudgetPerRequest bounds the bytes RunSharded allocates per offered
// request on the fleet shape below. With result buffers grown by append the
// test measures 6.6 KB per request (Go 1.24, linux/amd64; the count is
// deterministic to a few bytes, 6.8 KB under -race). When every shard
// preallocated buffers sized to the whole trace it measured 9.4 KB. The
// budget sits between the two, so that preallocation cannot come back
// unnoticed; twice the measured value would not tell them apart.
const allocBudgetPerRequest = 8 << 10

// TestRunShardedAllocPerRequest is the memory regression guard for the
// sharded harness: four 2-GPU shards sliced from 8-GPU nodes, elastic
// rebalancing and lifecycle recording on (the sim-fleet shape), 4 000
// requests. A shard must cost what it serves, not what the trace holds.
func TestRunShardedAllocPerRequest(t *testing.T) {
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
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Offered(); got != len(trace) {
		t.Fatalf("offered %d, want %d", got, len(trace))
	}
	perReq := (after.TotalAlloc - before.TotalAlloc) / uint64(len(trace))
	t.Logf("RunSharded allocated %d B per offered request", perReq)
	if perReq > allocBudgetPerRequest {
		t.Fatalf("RunSharded allocated %d B per offered request, budget %d", perReq, allocBudgetPerRequest)
	}
}
