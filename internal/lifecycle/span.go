// Package lifecycle is the span-structured, per-request trace layer: it
// listens to the control loop's existing Hooks stream (no new hot-path
// instrumentation) and assembles, for every request, an ordered timeline of
// phase spans — admission, plan-wait, queue, compute segments, requeue and
// preemption markers, finish/drop — with virtual (clock-domain) timestamps.
// The same recorder attaches to the live driver and to sim.RunSharded, so a
// routed request's timeline and the simulator's replay of the same scenario
// are bit-identical by construction.
//
// Phase semantics, mapped onto the hook stream:
//
//	admission  instant: the request entered this loop (Admitted)
//	plan-wait  Admitted (or requeue) → the first plan that considered the
//	           request (PlanComputed with it in ctx.Pending)
//	queue      first considering plan → dispatch (RunStarted); zero-length
//	           when the considering plan scheduled it immediately
//	compute    RunStarted → RunFinished/Aborted/Preempted, one span per run
//	           segment, annotated with steps, cache-elided steps, SP degree
//	           and the GPU group
//	preempted  instant: an elastic resize interrupted the block (RunPreempted)
//	requeued   instant: the survivor returned to the queue, with cause
//	finish     instant at delivery (Finished), with met/latency
//	drop       instant at abandonment (Dropped), with cause
package lifecycle

import (
	"time"

	"tetriserve/internal/model"
)

// SpanKind names a timeline phase.
type SpanKind string

// Span kinds, in typical timeline order.
const (
	SpanAdmission SpanKind = "admission"
	SpanPlanWait  SpanKind = "plan-wait"
	SpanQueue     SpanKind = "queue"
	SpanCompute   SpanKind = "compute"
	SpanPreempted SpanKind = "preempted"
	SpanRequeued  SpanKind = "requeued"
	SpanFinish    SpanKind = "finish"
	SpanDrop      SpanKind = "drop"
)

// Span is one phase segment of a request's timeline. Timestamps are
// microseconds in the loop's clock domain (virtual time under the simulator,
// speedup-scaled wall time under the live driver), so identical scenarios
// produce identical spans.
type Span struct {
	Kind    SpanKind `json:"kind"`
	StartUS int64    `json:"start_us"`
	EndUS   int64    `json:"end_us"`

	// Compute-segment annotations.
	Steps       int   `json:"steps,omitempty"`
	ElidedSteps int   `json:"elided_steps,omitempty"`
	Degree      int   `json:"degree,omitempty"`
	GPUs        []int `json:"gpus,omitempty"`
	Batched     bool  `json:"batched,omitempty"`

	// Cause annotates requeued/drop spans ("fault", "resize", drop causes)
	// and compute segments that ended abnormally.
	Cause string `json:"cause,omitempty"`
}

// Duration returns the span's extent.
func (s Span) Duration() time.Duration {
	return time.Duration(s.EndUS-s.StartUS) * time.Microsecond
}

// Timeline is the full lifecycle record of one request.
type Timeline struct {
	TraceID string `json:"trace_id"`
	ID      int    `json:"request_id"`
	Tenant  string `json:"tenant,omitempty"`
	// Class is the request's resolution class (the SLO contract dimension).
	Class string `json:"class"`
	Shard string `json:"shard,omitempty"`

	SLOUS       int64 `json:"slo_us"`
	ArrivalUS   int64 `json:"arrival_us"`
	DeadlineUS  int64 `json:"deadline_us"`
	CompletedUS int64 `json:"completed_us,omitempty"`

	Done    bool   `json:"done"`
	Dropped bool   `json:"dropped,omitempty"`
	Cause   string `json:"cause,omitempty"`
	Met     bool   `json:"met"`
	// ElidedSteps totals cache-approximated steps across all segments.
	ElidedSteps int `json:"elided_steps,omitempty"`
	// SkippedSteps counts the leading steps the step cache skipped at
	// admission; AvgDegree is the step-weighted mean SP degree of a
	// completed request (0 until it completes, and for a dropped one).
	SkippedSteps int     `json:"skipped_steps,omitempty"`
	AvgDegree    float64 `json:"avg_degree,omitempty"`
	// Res is the resolution Class names; Running reports a compute segment
	// still open (an in-flight block). Neither is serialized.
	Res     model.Resolution `json:"-"`
	Running bool             `json:"-"`

	Spans []Span `json:"spans"`
}

// PhaseSeconds sums span durations per kind — the derived phase-latency
// decomposition (instant markers contribute zero).
func (t *Timeline) PhaseSeconds() map[SpanKind]float64 {
	out := make(map[SpanKind]float64, 4)
	for _, s := range t.Spans {
		if d := s.Duration(); d > 0 {
			out[s.Kind] += d.Seconds()
		}
	}
	return out
}

// Phase returns PhaseSeconds()[kind] without building the map: the summed
// seconds of the kind's spans, 0 when it has none of positive length.
func (t *Timeline) Phase(kind SpanKind) float64 {
	var secs float64
	for i := range t.Spans {
		if s := &t.Spans[i]; s.Kind == kind {
			secs += spanSeconds(s.StartUS, s.EndUS)
		}
	}
	return secs
}

// spanSeconds is a span's duration in seconds, 0 unless it is positive:
// the term PhaseSeconds adds for it.
func spanSeconds(startUS, endUS int64) float64 {
	if endUS <= startUS {
		return 0
	}
	return (time.Duration(endUS-startUS) * time.Microsecond).Seconds()
}

// Clone deep-copies the timeline (spans included).
func (t *Timeline) Clone() *Timeline {
	cp := *t
	cp.Spans = append([]Span(nil), t.Spans...)
	for i, s := range cp.Spans {
		cp.Spans[i].GPUs = append([]int(nil), s.GPUs...)
	}
	return &cp
}
