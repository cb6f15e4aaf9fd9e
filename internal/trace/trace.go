// Package trace turns control-plane results — from the offline simulator or
// the online driver's /v1/trace endpoint, which share internal/control's
// Result — into a structured, replayable event log (JSON lines) and rebuilds
// summary statistics from such logs. This is the observability surface a
// production deployment would ship to its metrics pipeline; round-tripping
// through it is also a consistency check on the control loop's bookkeeping
// (the analyzer's numbers must match the metrics computed directly from the
// result).
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/workload"
)

// Kind discriminates event types.
type Kind string

// Event kinds, ordered roughly by lifecycle.
const (
	KindArrival    Kind = "arrival"
	KindBlockStart Kind = "block_start"
	KindBlockEnd   Kind = "block_end"
	KindComplete   Kind = "complete"
	KindDrop       Kind = "drop"
)

// Event is one log line.
type Event struct {
	// AtUS is the virtual timestamp in microseconds.
	AtUS int64 `json:"at_us"`
	Kind Kind  `json:"kind"`
	// Requests lists the involved request ids.
	Requests []int `json:"requests,omitempty"`
	// Resolution as "1024x1024" for request-scoped events.
	Resolution string `json:"resolution,omitempty"`
	// Degree and GPUs describe block events.
	Degree int   `json:"degree,omitempty"`
	GPUs   []int `json:"gpus,omitempty"`
	Steps  int   `json:"steps,omitempty"`
	// Met/latency annotate completions.
	Met       bool  `json:"met,omitempty"`
	LatencyUS int64 `json:"latency_us,omitempty"`
	// BestEffort and Batched annotate blocks.
	BestEffort bool `json:"best_effort,omitempty"`
	Batched    bool `json:"batched,omitempty"`
}

// FromResult linearizes a simulation result into time-ordered events.
func FromResult(res *control.Result) []Event {
	var evs []Event
	for _, o := range res.Outcomes {
		evs = append(evs, Event{
			AtUS:       o.Arrival.Microseconds(),
			Kind:       KindArrival,
			Requests:   []int{int(o.ID)},
			Resolution: o.Res.String(),
		})
		if o.Dropped {
			evs = append(evs, Event{
				AtUS:       o.Deadline.Microseconds(),
				Kind:       KindDrop,
				Requests:   []int{int(o.ID)},
				Resolution: o.Res.String(),
			})
		} else {
			evs = append(evs, Event{
				AtUS:       o.Completion.Microseconds(),
				Kind:       KindComplete,
				Requests:   []int{int(o.ID)},
				Resolution: o.Res.String(),
				Met:        o.Met,
				LatencyUS:  o.Latency.Microseconds(),
			})
		}
	}
	for i, r := range res.Runs {
		members := res.RunRequests(i)
		ids := make([]int, len(members))
		for j, id := range members {
			ids[j] = int(id)
		}
		gpus := make([]int, 0, r.Degree)
		for _, g := range r.GPUs() {
			gpus = append(gpus, int(g))
		}
		evs = append(evs, Event{
			AtUS: r.Start.Microseconds(), Kind: KindBlockStart,
			Requests: ids, Resolution: r.Res.String(),
			Degree: int(r.Degree), GPUs: gpus, Steps: int(r.Steps),
			BestEffort: r.BestEffort, Batched: r.Batched,
		})
		evs = append(evs, Event{
			AtUS: r.End.Microseconds(), Kind: KindBlockEnd,
			Requests: ids, Resolution: r.Res.String(),
			Degree: int(r.Degree), GPUs: gpus, Steps: int(r.Steps),
			BestEffort: r.BestEffort, Batched: r.Batched,
		})
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].AtUS != evs[j].AtUS {
			return evs[i].AtUS < evs[j].AtUS
		}
		// At equal timestamps a block's end precedes the next block's
		// start so consecutive same-group blocks pair up correctly.
		return kindRank(evs[i].Kind) < kindRank(evs[j].Kind)
	})
	return evs
}

func kindRank(k Kind) int {
	switch k {
	case KindArrival:
		return 0
	case KindBlockEnd:
		return 1
	case KindComplete, KindDrop:
		return 2
	default: // block_start last
		return 3
	}
}

// Write emits events as JSON lines.
func Write(w io.Writer, evs []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range evs {
		if err := enc.Encode(&evs[i]); err != nil {
			return fmt.Errorf("trace: encoding event %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Read parses a JSONL event stream.
func Read(r io.Reader) ([]Event, error) {
	var evs []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return evs, nil
}

// Summary is what the analyzer reconstructs from a log.
type Summary struct {
	Requests  int
	Completed int
	Dropped   int
	Met       int
	// SAR = Met / Requests.
	SAR float64
	// GPUSeconds integrates block occupancy.
	GPUSeconds float64
	// MeanLatency is over completions, in seconds.
	MeanLatency float64
	// Blocks counts executed step blocks; BestEffort/Batched are subsets.
	Blocks     int
	BestEffort int
	Batched    int
	// Span is the log's time extent.
	Span time.Duration
}

// Analyze rebuilds a Summary from events. It validates pairing: every
// block_start must have a matching block_end.
func Analyze(evs []Event) (Summary, error) {
	var s Summary
	open := map[string]Event{}
	var latSum float64
	var maxAt int64
	for _, ev := range evs {
		if ev.AtUS > maxAt {
			maxAt = ev.AtUS
		}
		switch ev.Kind {
		case KindArrival:
			s.Requests++
		case KindComplete:
			s.Completed++
			if ev.Met {
				s.Met++
			}
			latSum += float64(ev.LatencyUS) / 1e6
		case KindDrop:
			s.Dropped++
		case KindBlockStart:
			open[blockKey(ev)] = ev
		case KindBlockEnd:
			key := blockKey(ev)
			start, ok := open[key]
			if !ok {
				return s, fmt.Errorf("trace: block_end without start at %dus (%v)", ev.AtUS, ev.Requests)
			}
			delete(open, key)
			s.Blocks++
			if ev.BestEffort {
				s.BestEffort++
			}
			if ev.Batched {
				s.Batched++
			}
			s.GPUSeconds += float64(ev.Degree) * float64(ev.AtUS-start.AtUS) / 1e6
		default:
			return s, fmt.Errorf("trace: unknown event kind %q", ev.Kind)
		}
	}
	if len(open) != 0 {
		return s, fmt.Errorf("trace: %d blocks never ended", len(open))
	}
	if s.Requests > 0 {
		s.SAR = float64(s.Met) / float64(s.Requests)
	}
	if s.Completed > 0 {
		s.MeanLatency = latSum / float64(s.Completed)
	}
	s.Span = time.Duration(maxAt) * time.Microsecond
	return s, nil
}

// blockKey pairs start/end events: a request set can only run one block at
// a time (step dependency), so (first request, start-identity) suffices;
// we key on the requests plus degree and gpu set.
func blockKey(ev Event) string {
	ids, _ := json.Marshal(ev.Requests)
	gpus, _ := json.Marshal(ev.GPUs)
	return string(ids) + "/" + string(gpus) + "/" + fmt.Sprint(ev.Degree)
}

// RequestTimeline extracts one request's events in order, for debugging.
func RequestTimeline(evs []Event, id workload.RequestID) []Event {
	var out []Event
	for _, ev := range evs {
		for _, r := range ev.Requests {
			if r == int(id) {
				out = append(out, ev)
				break
			}
		}
	}
	return out
}
