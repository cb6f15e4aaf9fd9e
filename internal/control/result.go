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

// RunRecord logs one executed block for timeline metrics.
type RunRecord struct {
	Start, End time.Duration
	Degree     int
	Steps      int
	Requests   []workload.RequestID
	Res        model.Resolution
	Group      simgpu.Mask
	BestEffort bool
	Batched    bool
	// CacheInterval > 1 marks a cache-assisted block (every interval-th step
	// computed, the rest approximated).
	CacheInterval int
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
	SchedulerName  string
	NGPU           int
	Outcomes       []Outcome
	Runs           []RunRecord
	Makespan       time.Duration
	GPUBusySeconds float64
	PlanLatencies  []time.Duration
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

// Clone returns a deep copy safe to hand across goroutines (the online
// driver snapshots the loop-owned result this way).
func (r *Result) Clone() *Result {
	c := *r
	c.Outcomes = append([]Outcome(nil), r.Outcomes...)
	c.Runs = make([]RunRecord, len(r.Runs))
	for i, rec := range r.Runs {
		rec.Requests = append([]workload.RequestID(nil), rec.Requests...)
		c.Runs[i] = rec
	}
	c.PlanLatencies = append([]time.Duration(nil), r.PlanLatencies...)
	return &c
}
