package telemetry

import (
	"sync"
	"time"

	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/workload"
)

// Decision explains one request's placement in one planning round: the
// chosen SP degree, the deadline slack at decision time, and the §5
// survival verdict (whether the remaining steps finish by the deadline at
// the chosen degree's profiled step time, decode excluded).
type Decision struct {
	Request    workload.RequestID
	Res        model.Resolution
	Degree     int
	Steps      int
	Group      uint64 // GPU bitmask
	BestEffort bool
	Batched    bool
	// DeadlineSlack is deadline − now at decision time (negative = already
	// late). ProjectedFinish is now + remaining × T(res, degree); Survives
	// reports ProjectedFinish ≤ deadline (false when the degree is not in
	// the profile, which also leaves ProjectedFinish zero).
	DeadlineSlack   time.Duration
	ProjectedFinish time.Duration
	Survives        bool
}

// RoundRecord is one planning round's decision record: queue state going
// in, solve latency, and either per-request decisions or the rejection
// reason.
type RoundRecord struct {
	// Seq increments per plan call; the ring keeps the last cap records.
	Seq uint64
	// At is the loop clock at the plan call.
	At time.Duration
	// PlanLatency is the scheduler's solve time (wall clock).
	PlanLatency time.Duration
	// Pending/Running/FreeGPUs snapshot the planning context.
	Pending  int
	Running  int
	FreeGPUs int
	// Rejected holds the validator's reason when the plan was refused
	// (Decisions is empty then).
	Rejected  string
	Decisions []Decision
}

// clone deep-copies the record (Decisions storage is ring-owned).
func (r RoundRecord) clone() RoundRecord {
	r.Decisions = append([]Decision(nil), r.Decisions...)
	return r
}

// RoundLog is a bounded ring of per-round decision records, written by the
// control-loop goroutine through hooks and read concurrently by the
// GET /v1/rounds handler. Record storage is reused once the ring wraps, so
// steady-state capture allocates nothing.
//
// The write protocol relies on control.Hooks ordering: PlanComputed stages
// a record, then exactly one of Planned or PlanRejected commits it, all
// synchronously on the loop goroutine.
type RoundLog struct {
	mu   sync.Mutex
	ring []RoundRecord
	n    uint64 // total committed

	// cur is the staged record (loop goroutine only, outside mu).
	cur RoundRecord
}

// NewRoundLog builds a ring holding the last cap rounds (default 512).
func NewRoundLog(cap int) *RoundLog {
	if cap <= 0 {
		cap = 512
	}
	return &RoundLog{ring: make([]RoundRecord, 0, cap)}
}

// OnPlanComputed stages a new record; the control loop fires it on every
// scheduler invocation, before validation.
func (l *RoundLog) OnPlanComputed(now, latency time.Duration, ctx *sched.PlanContext) {
	l.cur.At = now
	l.cur.PlanLatency = latency
	l.cur.Pending = len(ctx.Pending) + len(ctx.Late)
	l.cur.Running = len(ctx.Running)
	l.cur.FreeGPUs = ctx.Free.Count()
	l.cur.Rejected = ""
	l.cur.Decisions = l.cur.Decisions[:0]
}

// OnPlanned fills per-request decisions from a validated plan and commits
// the staged record; members resolve through ctx.PendingState, so a round
// costs its plan, not its queue. ctx and plan alias scheduler scratch
// storage and are only read synchronously.
func (l *RoundLog) OnPlanned(now time.Duration, ctx *sched.PlanContext, plan []sched.Assignment) {
	for i := range plan {
		a := &plan[i]
		degree := a.Group.Count()
		batched := len(a.Requests) > 1
		for _, id := range a.Requests {
			st, ok := ctx.PendingState(id)
			if !ok {
				continue
			}
			d := Decision{
				Request:       id,
				Res:           st.Req.Res,
				Degree:        degree,
				Steps:         a.Steps,
				Group:         uint64(a.Group),
				BestEffort:    a.BestEffort,
				Batched:       batched,
				DeadlineSlack: st.Deadline() - now,
			}
			if e, ok := ctx.Profile.Lookup(st.Req.Res, degree, 1); ok {
				d.ProjectedFinish = now + time.Duration(st.Remaining)*e.Mean
				d.Survives = d.ProjectedFinish <= st.Deadline()
			}
			l.cur.Decisions = append(l.cur.Decisions, d)
		}
	}
	l.commit()
}

// OnPlanRejected commits the staged record with the validator's reason.
func (l *RoundLog) OnPlanRejected(now time.Duration, err error) {
	l.cur.Rejected = err.Error()
	l.cur.Decisions = l.cur.Decisions[:0]
	l.commit()
}

func (l *RoundLog) commit() {
	l.mu.Lock()
	var reuse []Decision
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, l.cur)
	} else {
		i := int(l.n % uint64(cap(l.ring)))
		reuse = l.ring[i].Decisions // recycle the evicted record's storage
		l.ring[i] = l.cur
	}
	l.ring[int(l.n%uint64(cap(l.ring)))].Seq = l.n
	l.n++
	l.mu.Unlock()
	l.cur = RoundRecord{Decisions: reuse[:0]}
}

// Len returns how many rounds have been committed in total.
func (l *RoundLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.n)
}

// Snapshot returns deep copies of the last n records, oldest first. n ≤ 0
// or n larger than the retained window returns everything retained.
func (l *RoundLog) Snapshot(n int) []RoundRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	have := len(l.ring)
	if n <= 0 || n > have {
		n = have
	}
	out := make([]RoundRecord, 0, n)
	for k := int(l.n) - n; k < int(l.n); k++ {
		out = append(out, l.ring[k%cap(l.ring)].clone())
	}
	return out
}
