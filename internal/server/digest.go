package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/model"
	"tetriserve/internal/telemetry"
	"tetriserve/internal/workload"
)

// ShardDigest is one line of a shard's GET /v1/digest stream: the loop's
// control.Digest plus what a remote reader needs to use it.
type ShardDigest struct {
	control.Digest
	// Speedup is the shard clock's rate against the wall clock; a reader
	// moves Now forward by the wall time since receipt × Speedup.
	Speedup float64 `json:"speedup"`
	// Arrived is the job-ID low watermark: every job ID below it has reached
	// the loop, so the digest counts it.
	Arrived workload.RequestID `json:"arrived"`
}

// digestFeed fans the loop's digest out to GET /v1/digest subscribers. Each
// subscriber owns a one-slot latest-value mailbox: the loop goroutine (the
// only sender) replaces an unread digest instead of waiting for a slow
// reader.
type digestFeed struct {
	mu   sync.Mutex
	subs map[chan ShardDigest]struct{}
	// n mirrors len(subs) for the loop's lock-free "anyone listening?" test.
	n atomic.Int32

	// last is the last digest sent (loop goroutine).
	last ShardDigest
	// arrived is the arrival watermark and early holds the IDs that arrived
	// ahead of it. Only the loop goroutine writes them, under mu.
	arrived workload.RequestID
	early   map[workload.RequestID]bool
}

// arrive advances the watermark past id (loop goroutine).
func (f *digestFeed) arrive(id workload.RequestID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if id != f.arrived {
		if f.early == nil {
			f.early = map[workload.RequestID]bool{}
		}
		f.early[id] = true
		return
	}
	f.arrived++
	for f.early[f.arrived] {
		delete(f.early, f.arrived)
		f.arrived++
	}
}

// reached reports whether job id has reached the loop (any goroutine).
func (f *digestFeed) reached(id workload.RequestID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return id < f.arrived || f.early[id]
}

// publish sends the loop's current digest to every subscriber when its load
// changed since the last send, and always to joined, a subscriber that has
// none yet (loop goroutine).
func (f *digestFeed) publish(ctl *control.Loop, speedup float64, joined chan ShardDigest) {
	if joined == nil && f.n.Load() == 0 {
		return
	}
	dg := ShardDigest{Digest: ctl.Digest(), Speedup: speedup, Arrived: f.arrived}
	changed := dg.Arrived != f.last.Arrived || !dg.SameLoad(f.last.Digest)
	if !changed && joined == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if joined != nil {
		if f.subs == nil {
			f.subs = map[chan ShardDigest]struct{}{}
		}
		f.subs[joined] = struct{}{}
		f.n.Store(int32(len(f.subs)))
	}
	f.last = dg
	for box := range f.subs {
		if changed || box == joined {
			put(box, dg)
		}
	}
}

// put replaces whatever box holds with dg. The loop goroutine is the only
// sender, so after the drain the send cannot block.
func put(box chan ShardDigest, dg ShardDigest) {
	select {
	case <-box:
	default:
	}
	box <- dg
}

// leave drops a subscriber.
func (f *digestFeed) leave(box chan ShardDigest) {
	f.mu.Lock()
	delete(f.subs, box)
	f.n.Store(int32(len(f.subs)))
	f.mu.Unlock()
}

// closeAll ends every subscription (loop goroutine, at shutdown).
func (f *digestFeed) closeAll() {
	f.mu.Lock()
	for box := range f.subs {
		close(box)
		delete(f.subs, box)
	}
	f.n.Store(0)
	f.mu.Unlock()
}

// subscribeDigest registers a digest subscriber. The returned channel holds
// the loop's current digest at once, then the latest one after every loop
// iteration that changed it (a reader that falls behind sees only the
// newest); it closes when the driver stops. cancel unsubscribes. Fails
// before Start and after Stop.
func (d *Driver) subscribeDigest() (<-chan ShardDigest, func(), error) {
	if !d.started.Load() {
		return nil, nil, fmt.Errorf("server: driver not started")
	}
	box := make(chan ShardDigest, 1)
	select {
	case d.digestc <- box:
		return box, func() { d.digests.leave(box) }, nil
	case <-d.stopped:
		return nil, nil, fmt.Errorf("server: driver stopped")
	}
}

// handleDigest serves GET /v1/digest: the loop's current digest as one JSON
// document, or with ?follow=1 an NDJSON stream of every digest whose load
// changed, until the client disconnects or the driver stops.
func (a *API) handleDigest(w http.ResponseWriter, r *http.Request) {
	box, cancel, err := a.Driver.subscribeDigest()
	if err != nil {
		httpError(a.Logf, w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	defer cancel()
	if f := r.URL.Query().Get("follow"); f == "" || f == "0" {
		dg, ok := <-box
		if !ok {
			httpError(a.Logf, w, http.StatusServiceUnavailable, "server: driver stopped")
			return
		}
		writeJSON(a.Logf, w, http.StatusOK, dg)
		return
	}
	// NewResponseController finds the Flusher through wrappers that only
	// implement Unwrap; the write deadline bounds a reader that stopped
	// reading without disconnecting (as on the trace feed).
	rc := http.NewResponseController(w)
	const writeWindow = 30 * time.Second
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for {
		select {
		case <-r.Context().Done():
			return
		case dg, ok := <-box:
			if !ok {
				return
			}
			_ = rc.SetWriteDeadline(time.Now().Add(writeWindow))
			if enc.Encode(dg) != nil || rc.Flush() != nil {
				return
			}
		}
	}
}

// digestState is a RemoteShard's view of its shard's digest stream.
type digestState struct {
	mu sync.Mutex
	// latest is the newest digest received and at the wall time it arrived;
	// live reports that the stream that delivered it is still open.
	latest ShardDigest
	at     time.Time
	live   bool
	// submitted is one past the highest job ID this client has submitted: a
	// digest whose watermark is below it does not count that job yet.
	submitted workload.RequestID
	// following reports a running stream goroutine; closed refuses new ones.
	following bool
	closed    bool
	ctx       context.Context
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	// fromDigest/fromProbe count answers by source (nil until a RouterAPI
	// attaches its metrics).
	fromDigest, fromProbe *telemetry.Counter
}

// project answers a probe from the latest digest, or reports ok=false when
// the digest cannot stand in for the shard: there is none, the stream is
// down, a submitted job is not in it yet, the shape is not in its table, or
// the SLO is one the HTTP probe would refuse. The answer carries the wire's
// microsecond precision, like an HTTP probe's.
func (s *RemoteShard) project(res model.Resolution, steps int, slo time.Duration) (control.Feasibility, bool) {
	s.dg.mu.Lock()
	dg, at := s.dg.latest, s.dg.at
	ok := s.dg.live && dg.Arrived >= s.dg.submitted
	s.dg.mu.Unlock()
	if !ok || slo.Milliseconds() <= 0 {
		return control.Feasibility{}, false
	}
	dg.Now += time.Duration(float64(time.Since(at)) * dg.Speedup)
	// The HTTP probe carries the SLO in whole milliseconds.
	slo = time.Duration(slo.Milliseconds()) * time.Millisecond
	f, err := dg.Project(control.ProbeClass{Res: res, Steps: steps, SLO: slo})
	if err != nil {
		return control.Feasibility{}, false
	}
	return NewFeasibilityView(f).Feasibility(), true
}

// submittedJob records a job this client placed on the shard.
func (s *RemoteShard) submittedJob(id workload.RequestID) {
	s.dg.mu.Lock()
	s.dg.submitted = max(s.dg.submitted, id+1)
	s.dg.mu.Unlock()
}

// follow starts the digest stream goroutine unless one runs already or the
// client is closed.
func (s *RemoteShard) follow() {
	s.dg.mu.Lock()
	defer s.dg.mu.Unlock()
	if s.dg.following || s.dg.closed {
		return
	}
	if s.dg.ctx == nil {
		s.dg.ctx, s.dg.cancel = context.WithCancel(context.Background())
	}
	s.dg.following = true
	s.dg.wg.Add(1)
	go s.followLoop(s.dg.ctx)
}

// followLoop reads digest streams: a stream that delivered a digest earns
// one reconnect when it ends, and a connection that fails or delivers
// nothing ends the goroutine. The next successful HTTP probe starts another.
func (s *RemoteShard) followLoop(ctx context.Context) {
	defer s.dg.wg.Done()
	for s.stream(ctx) {
	}
	s.dg.mu.Lock()
	s.dg.following = false
	s.dg.mu.Unlock()
}

// stream reads one GET /v1/digest?follow=1 connection to its end and reports
// whether it delivered a digest (and was not cancelled).
func (s *RemoteShard) stream(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.BaseURL+"/v1/digest?follow=1", nil)
	if err != nil {
		return false
	}
	// The stream outlives any request timeout; it ends on disconnect,
	// driver stop or Close.
	client := *s.Client
	client.Timeout = 0
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	dec := json.NewDecoder(resp.Body)
	got := false
	for {
		var dg ShardDigest
		if dec.Decode(&dg) != nil {
			break
		}
		s.dg.mu.Lock()
		if !got && dg.Arrived < s.dg.latest.Arrived {
			// A watermark only grows within one shard process: this is a
			// restarted shard, whose job IDs start over.
			s.dg.submitted = 0
		}
		s.dg.latest, s.dg.at, s.dg.live = dg, time.Now(), true
		s.dg.mu.Unlock()
		got = true
	}
	s.dg.mu.Lock()
	s.dg.live = false
	s.dg.mu.Unlock()
	return got && ctx.Err() == nil
}

// Close stops the digest stream and waits for its goroutine; later probes go
// over HTTP. Close before closing an httptest shard server: its Close waits
// for the stream's handler.
func (s *RemoteShard) Close() {
	s.dg.mu.Lock()
	s.dg.closed = true
	cancel := s.dg.cancel
	s.dg.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	s.dg.wg.Wait()
}

// countProjections attaches the router's per-source answer counters.
func (s *RemoteShard) countProjections(fromDigest, fromProbe *telemetry.Counter) {
	s.dg.mu.Lock()
	s.dg.fromDigest, s.dg.fromProbe = fromDigest, fromProbe
	s.dg.mu.Unlock()
}

// answered counts one probe answer by its source.
func (s *RemoteShard) answered(fromDigest bool) {
	s.dg.mu.Lock()
	c := s.dg.fromProbe
	if fromDigest {
		c = s.dg.fromDigest
	}
	s.dg.mu.Unlock()
	if c != nil {
		c.Inc()
	}
}
