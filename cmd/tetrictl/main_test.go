package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// scriptedServer answers submissions with IDs 0, 1, 2, … and each job poll
// with the next state of that job's script, whose last state is terminal; a
// job without a script answers 410 Gone, as a job evicted from the server's
// records does.
func scriptedServer(t *testing.T, scripts map[int][]string) *client {
	t.Helper()
	var mu sync.Mutex
	next := 0
	polls := map[int]int{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/images/generations", func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		id := next
		next++
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":%d,"state":"queued"}`, id)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		var id int
		fmt.Sscan(r.PathValue("id"), &id)
		mu.Lock()
		script, ok := scripts[id]
		i := polls[id]
		polls[id]++
		mu.Unlock()
		if ok && i >= len(script) {
			// The client polled past the terminal state: fail it, not hang.
			http.Error(w, "polled after a terminal state", http.StatusInternalServerError)
			return
		}
		if !ok {
			w.WriteHeader(http.StatusGone)
			fmt.Fprintf(w, `{"error":"job %d evicted"}`, id)
			return
		}
		fmt.Fprintf(w, `{"id":%d,"state":%q,"met_slo":%v}`, id, script[i], script[i] == "completed")
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return &client{base: ts.URL, http: ts.Client()}
}

// stdout runs fn with os.Stdout captured and returns what it printed.
func stdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	var buf bytes.Buffer
	done := make(chan struct{})
	go func() {
		io.Copy(&buf, r)
		close(done)
	}()
	ferr := fn()
	os.Stdout = saved
	w.Close()
	<-done
	if ferr != nil {
		t.Fatal(ferr)
	}
	return buf.String()
}

func TestWaitJobStopsOnDroppedAndEvicted(t *testing.T) {
	c := scriptedServer(t, map[int][]string{0: {"queued", "running", "dropped"}})
	job, err := c.waitJob(0, time.Millisecond)
	if err != nil || job.State != "dropped" {
		t.Fatalf("waitJob(0) = %+v, %v; want the dropped job", job, err)
	}
	if _, err := c.waitJob(1, time.Millisecond); !errors.Is(err, errEvicted) {
		t.Fatalf("waitJob(1) error = %v, want errEvicted", err)
	}
}

func TestSubmitWaitReportsDrop(t *testing.T) {
	c := scriptedServer(t, map[int][]string{0: {"queued", "running", "dropped"}})
	out := stdout(t, func() error { return cmdSubmit(c, []string{"-wait"}) })
	if !strings.Contains(out, "job 0 dropped") {
		t.Fatalf("submit -wait printed %q, want the drop reported", out)
	}
}

func TestLoadSummaryCountsEveryOutcome(t *testing.T) {
	load := []string{"-n", "3", "-rate", "6000", "-speedup", "1000000"}
	c := scriptedServer(t, map[int][]string{
		0: {"queued", "running", "dropped"},
		2: {"running", "completed"},
	})
	out := stdout(t, func() error { return cmdLoad(c, load) })
	if want := "completed 1/3, dropped 1, evicted 1, SLO attainment 1.00"; !strings.Contains(out, want) {
		t.Fatalf("load printed %q, want %q", out, want)
	}

	// With nothing completed there is no attainment to report, and no NaN.
	c = scriptedServer(t, map[int][]string{0: {"dropped"}, 1: {"dropped"}, 2: {"dropped"}})
	out = stdout(t, func() error { return cmdLoad(c, load) })
	if want := "completed 0/3, dropped 3, evicted 0, SLO attainment n/a"; !strings.Contains(out, want) || strings.Contains(out, "NaN") {
		t.Fatalf("load printed %q, want %q", out, want)
	}
}
