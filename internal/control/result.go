package control

import (
	"time"

	"tetriserve/internal/model"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

// DropCause classifies why a request was abandoned — the label on the
// telemetry plane's drops-by-cause counter.
type DropCause string

// Drop causes.
const (
	// DropExpired: still queued (or requeued) past DropLateFactor × SLO.
	DropExpired DropCause = "expired"
	// DropTimeout: all steps finished but the decode delivered past the
	// abandon point (Figure 9's "dropped/timeout" population).
	DropTimeout DropCause = "timeout"
	// DropFault: a GPU fault killed the block and NoRequeueOnFault dropped
	// the survivor instead of requeueing it.
	DropFault DropCause = "fault"
)

// Outcome is the fate of one request.
type Outcome struct {
	ID         workload.RequestID
	Res        model.Resolution
	Arrival    time.Duration
	Deadline   time.Duration
	Completion time.Duration // 0 when dropped
	Dropped    bool
	// Cause is set only when Dropped.
	Cause     DropCause
	Met       bool
	Latency   time.Duration
	AvgDegree float64
	Steps     int
	Skipped   int
	// Approximated counts steps served from the step cache (approximated
	// rather than fully computed) across the request's lifetime — always
	// ≤ the request's QualityBudget, 0 when caching never engaged.
	Approximated int
}

// RunRecord logs one executed block for timeline metrics. It holds no
// pointer, so a run log of any length costs the garbage collector nothing to
// scan: the block's members live on its Result's ID log (Result.RunIDs) and
// the record keeps only their offset and count there. Read them with
// Result.RunRequests.
type RunRecord struct {
	Start, End time.Duration
	Res        model.Resolution
	Group      simgpu.Mask
	// off and n locate the members on Result.RunIDs. The offset is 64-bit
	// because a long-lived shard's log can pass 2³¹ IDs.
	off int64
	n   int32
	// Degree and Steps share one integer type so their product needs no
	// conversion.
	Degree int32
	Steps  int32
	// CacheInterval > 1 marks a cache-assisted block (every interval-th step
	// computed, the rest approximated).
	CacheInterval int32
	BestEffort    bool
	Batched       bool
	// Aborted marks a block killed mid-flight by a GPU fault; End is the
	// fault time, not the planned completion.
	Aborted bool
	// Preempted marks an Aborted block whose abort was a planned capacity
	// resize (cooperative handoff), not a fault.
	Preempted bool
}

// GPUs returns the device ids the block occupied.
func (r RunRecord) GPUs() []simgpu.GPUID { return r.Group.IDs() }

// Result aggregates a run of the control loop. The simulator returns it
// directly; the online driver exposes point-in-time snapshots of it, so the
// same structure feeds metrics, Gantt rendering, and trace export in both
// worlds.
type Result struct {
	SchedulerName string
	NGPU          int
	Outcomes      []Outcome
	Runs          []RunRecord
	// RunIDs is the run log's member list: every record's members, appended
	// in record order. RunRequests(i) is Runs[i]'s share of it.
	RunIDs         []workload.RequestID
	Makespan       time.Duration
	GPUBusySeconds float64
	PlanCalls      int
	Remaps         int
	Warmups        int
	// RunsAborted counts blocks killed by injected GPU faults.
	RunsAborted int
	// RunsPreempted counts blocks preempted by capacity resizes; Resizes
	// counts effective capacity changes applied.
	RunsPreempted int
	Resizes       int
	// Health counters: a serving loop must degrade loudly, not silently.
	// PlanRejected counts plans the validator refused; StartFailed counts
	// assignments the engine would not start; RoundTicks counts fired round
	// boundaries (0 for event-driven schedulers; a parked loop fires none).
	PlanRejected int
	StartFailed  int
	RoundTicks   int
	// Completed, Met and Dropped count Outcomes as they are appended:
	// delivered, delivered by their deadline, and abandoned.
	Completed, Met, Dropped int
}

// AppendRun logs one block: rec, with ids as its members. It copies ids, so
// the caller may reuse them.
func (r *Result) AppendRun(rec RunRecord, ids []workload.RequestID) {
	rec.off, rec.n = int64(len(r.RunIDs)), int32(len(ids))
	r.RunIDs = append(r.RunIDs, ids...)
	r.Runs = append(r.Runs, rec)
}

// RunRequests returns the members of Runs[i] in assignment order. The slice
// aliases the ID log with its capacity clipped, so appending to it cannot
// overwrite another record's members; do not modify its elements.
func (r *Result) RunRequests(i int) []workload.RequestID {
	rec := &r.Runs[i]
	end := rec.off + int64(rec.n)
	return r.RunIDs[rec.off:end:end]
}

// Clone returns a deep copy safe to hand across goroutines (the online
// driver snapshots the loop-owned result this way). No element holds a
// mutable reference, so it is three bulk copies whatever the log's length.
func (r *Result) Clone() *Result {
	c := *r
	c.Outcomes = append([]Outcome(nil), r.Outcomes...)
	c.Runs = append([]RunRecord(nil), r.Runs...)
	c.RunIDs = append([]workload.RequestID(nil), r.RunIDs...)
	return &c
}
