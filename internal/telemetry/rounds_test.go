package telemetry

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"tetriserve/internal/costmodel"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

var roundsProf = costmodel.BuildProfile(
	costmodel.NewEstimator(model.FLUX(), simgpu.H100x8()), costmodel.ProfilerConfig{})

// fakeRound pushes one synthetic PlanComputed→Planned pair through the log.
func fakeRound(l *RoundLog, now time.Duration, ids ...workload.RequestID) {
	fakeRoundWith(l, now, nil, ids...)
}

// fakeRoundWith is fakeRound whose context also carries the loop's request
// tracker: the listed pending states plus the given running ones.
func fakeRoundWith(l *RoundLog, now time.Duration, running []*sched.RequestState, ids ...workload.RequestID) {
	var pending []*sched.RequestState
	var reqs []workload.RequestID
	for _, id := range ids {
		pending = append(pending, &sched.RequestState{
			Req: &workload.Request{
				ID: id, Res: model.Res512, Steps: 50,
				SLO: 2 * time.Second, Arrival: now - time.Second,
			},
			Remaining: 50,
		})
		reqs = append(reqs, id)
	}
	ctx := &sched.PlanContext{
		Now:     now,
		Free:    simgpu.MaskOf(0) | simgpu.MaskOf(1),
		Pending: pending,
		Profile: roundsProf,
	}
	if running != nil {
		ctx.Tracked = map[workload.RequestID]*sched.RequestState{}
		for _, st := range append(pending, running...) {
			ctx.Tracked[st.Req.ID] = st
		}
		// A plan naming a running request gets no decision for it.
		reqs = append(reqs, running[0].Req.ID)
	}
	l.OnPlanComputed(now, 42*time.Microsecond, ctx)
	var plan []sched.Assignment
	if len(reqs) > 0 {
		plan = []sched.Assignment{{
			Requests: reqs,
			Group:    simgpu.MaskOf(0) | simgpu.MaskOf(1),
			Steps:    10,
		}}
	}
	l.OnPlanned(now, ctx, plan)
}

func TestRoundLogDecisions(t *testing.T) {
	l := NewRoundLog(8)
	fakeRound(l, time.Second, 1, 2)
	recs := l.Snapshot(0)
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	rec := recs[0]
	if rec.Seq != 0 || rec.At != time.Second || rec.PlanLatency != 42*time.Microsecond {
		t.Fatalf("header = %+v", rec)
	}
	if rec.Pending != 2 || rec.FreeGPUs != 2 {
		t.Fatalf("context snapshot = %+v", rec)
	}
	if len(rec.Decisions) != 2 {
		t.Fatalf("decisions = %+v", rec.Decisions)
	}
	for _, d := range rec.Decisions {
		if d.Degree != 2 || d.Steps != 10 || !d.Batched {
			t.Fatalf("decision = %+v", d)
		}
		// Arrival now−1s, SLO 2s → deadline slack 1s at decision time.
		if d.DeadlineSlack != time.Second {
			t.Fatalf("slack = %v, want 1s", d.DeadlineSlack)
		}
		// 50 remaining steps at the profiled 512²@2 step time: the survival
		// verdict must be derived (projection non-zero).
		if d.ProjectedFinish == 0 {
			t.Fatalf("projection missing: %+v", d)
		}
		e, ok := roundsProf.Lookup(model.Res512, 2, 1)
		if !ok {
			t.Fatal("profile lookup failed")
		}
		wantFinish := time.Second + 50*e.Mean
		if d.ProjectedFinish != wantFinish {
			t.Fatalf("projected = %v, want %v", d.ProjectedFinish, wantFinish)
		}
		if d.Survives != (wantFinish <= 2*time.Second) {
			t.Fatalf("survives = %v for finish %v", d.Survives, wantFinish)
		}
	}
}

// TestRoundLogDecisionsFromTracker: resolving plan members through the
// loop's tracker yields the same record as scanning the pending snapshot,
// and a member the tracker knows as running gets no decision.
func TestRoundLogDecisionsFromTracker(t *testing.T) {
	scan, tracked := NewRoundLog(8), NewRoundLog(8)
	fakeRound(scan, time.Second, 1, 2)
	running := &sched.RequestState{
		Req:     &workload.Request{ID: 3, Res: model.Res512, Steps: 50, SLO: 2 * time.Second},
		Running: true, Remaining: 20,
	}
	fakeRoundWith(tracked, time.Second, []*sched.RequestState{running}, 1, 2)
	if got, want := fmt.Sprintf("%+v", tracked.Snapshot(0)), fmt.Sprintf("%+v", scan.Snapshot(0)); got != want {
		t.Fatalf("tracker record:\n got %s\nwant %s", got, want)
	}
}

// TestRoundLogCountsLate: a record counts the requests the loop holds in
// ctx.Late as pending and resolves their decisions, so splitting the same
// requests across Pending and Late records the same round.
func TestRoundLogCountsLate(t *testing.T) {
	all := NewRoundLog(8)
	fakeRound(all, time.Second, 1, 2)
	want := fmt.Sprintf("%+v", all.Snapshot(0))

	// The same round with request 2 in Late.
	split := NewRoundLog(8)
	var sts []*sched.RequestState
	for _, id := range []workload.RequestID{1, 2} {
		sts = append(sts, &sched.RequestState{
			Req:       &workload.Request{ID: id, Res: model.Res512, Steps: 50, SLO: 2 * time.Second},
			Remaining: 50,
		})
	}
	ctx := &sched.PlanContext{
		Now: time.Second, Free: simgpu.MaskOf(0) | simgpu.MaskOf(1),
		Pending: sts[:1], Late: sts[1:], LateDue: []time.Duration{time.Second},
		Profile: roundsProf,
	}
	split.OnPlanComputed(time.Second, 42*time.Microsecond, ctx)
	split.OnPlanned(time.Second, ctx, []sched.Assignment{{
		Requests: []workload.RequestID{1, 2}, Group: simgpu.MaskOf(0) | simgpu.MaskOf(1), Steps: 10,
	}})
	if got := fmt.Sprintf("%+v", split.Snapshot(0)); got != want {
		t.Fatalf("split record:\n got %s\nwant %s", got, want)
	}
}

func TestRoundLogRejected(t *testing.T) {
	l := NewRoundLog(8)
	ctx := &sched.PlanContext{Now: time.Second, Profile: roundsProf}
	l.OnPlanComputed(time.Second, time.Microsecond, ctx)
	l.OnPlanRejected(time.Second, errors.New("overlapping groups"))
	recs := l.Snapshot(0)
	if len(recs) != 1 || recs[0].Rejected != "overlapping groups" || len(recs[0].Decisions) != 0 {
		t.Fatalf("records = %+v", recs)
	}
}

func TestRoundLogRingWrap(t *testing.T) {
	l := NewRoundLog(4)
	for i := 0; i < 10; i++ {
		fakeRound(l, time.Duration(i+1)*time.Second, workload.RequestID(i))
	}
	if l.Len() != 10 {
		t.Fatalf("Len = %d", l.Len())
	}
	recs := l.Snapshot(0)
	if len(recs) != 4 {
		t.Fatalf("retained %d records, want 4", len(recs))
	}
	for i, rec := range recs {
		if want := uint64(6 + i); rec.Seq != want {
			t.Fatalf("record %d Seq = %d, want %d", i, rec.Seq, want)
		}
		if len(rec.Decisions) != 1 || rec.Decisions[0].Request != workload.RequestID(rec.Seq) {
			t.Fatalf("record %d decisions = %+v", i, rec.Decisions)
		}
	}
	last := l.Snapshot(2)
	if len(last) != 2 || last[0].Seq != 8 || last[1].Seq != 9 {
		t.Fatalf("Snapshot(2) = %+v", last)
	}
	// Snapshots are deep copies: mutating one must not corrupt the ring.
	last[0].Decisions[0].Degree = 99
	if l.Snapshot(2)[0].Decisions[0].Degree == 99 {
		t.Fatal("snapshot aliases ring storage")
	}
}

func TestRoundLogConcurrentSnapshot(t *testing.T) {
	l := NewRoundLog(16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			fakeRound(l, time.Duration(i)*time.Millisecond, workload.RequestID(i))
		}
	}()
	for {
		select {
		case <-done:
			if got := l.Len(); got != 500 {
				t.Fatalf("Len = %d", got)
			}
			return
		default:
			for _, rec := range l.Snapshot(8) {
				for _, d := range rec.Decisions {
					if d.Degree != 2 {
						panic(fmt.Sprintf("torn record: %+v", d))
					}
				}
			}
		}
	}
}
