package server

import (
	"strings"
	"sync"
	"testing"
	"time"

	"tetriserve/internal/core"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

// newStoppedDriver builds a valid driver without starting it.
func newStoppedDriver(t *testing.T, mutate ...func(*DriverConfig)) *Driver {
	t.Helper()
	mdl := model.FLUX()
	topo := simgpu.H100x8()
	prof := costmodel.BuildProfile(costmodel.NewEstimator(mdl, topo), costmodel.ProfilerConfig{})
	cfg := DriverConfig{
		Model:     mdl,
		Topo:      topo,
		Scheduler: core.NewScheduler(prof, topo, core.DefaultConfig()),
		Speedup:   200,
	}
	for _, m := range mutate {
		m(&cfg)
	}
	d, err := NewDriver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestStopIdempotent: the second (and third) Stop must neither panic on the
// re-closed channel nor deadlock waiting for an already-exited loop.
func TestStopIdempotent(t *testing.T) {
	d := newTestDriver(t)
	d.Stop()
	d.Stop()
	d.Stop() // t.Cleanup adds a fourth
}

// TestStopBeforeStart: stopping a never-started driver must return instead of
// blocking forever on a loop that will never close d.stopped.
func TestStopBeforeStart(t *testing.T) {
	d := newStoppedDriver(t)
	done := make(chan struct{})
	go func() {
		d.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop before Start deadlocked")
	}
	// Start after Stop launches a loop that exits immediately; Stop again
	// must still return.
	d.Start()
	d.Stop()
}

// TestSubmitAfterStopRollsBack is the leak regression: a Submit that loses
// the race with Stop must not leave a permanently-queued job behind.
func TestSubmitAfterStopRollsBack(t *testing.T) {
	d := newTestDriver(t)
	d.Stop()
	if _, err := d.Submit(workload.Prompt{Text: "x"}, model.Res256, 0); err == nil {
		t.Fatal("Submit on a stopped driver accepted")
	}
	st := d.Snapshot()
	if st.Queued != 0 {
		t.Fatalf("stopped driver reports %d queued jobs; the insertion leaked", st.Queued)
	}
	if _, ok := d.JobStatus(0); ok {
		t.Fatal("rolled-back job still visible")
	}
}

// TestConcurrentSubmitStopSnapshot hammers the public API from many
// goroutines; run with -race. Submit errors after Stop are expected — the
// invariant is no data race, no panic, and truthful counters.
func TestConcurrentSubmitStopSnapshot(t *testing.T) {
	d := newTestDriver(t)
	var wg sync.WaitGroup
	stopAt := time.After(50 * time.Millisecond)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for j := 0; ; j++ {
				_, err := d.Submit(workload.Prompt{Text: "x", Theme: worker, Mods: []int{j}}, model.Res256, 0)
				if err != nil {
					if !strings.Contains(err.Error(), "stopped") {
						t.Errorf("unexpected Submit error: %v", err)
					}
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			st := d.Snapshot()
			if st.Queued < 0 || st.Running < 0 {
				t.Errorf("negative queue state: %+v", st)
				return
			}
			select {
			case <-d.stop:
				return
			default:
				time.Sleep(time.Millisecond)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-stopAt
		d.FailGPUs(simgpu.MaskOf(6)) // exercise the fault plane concurrently too
		d.Stop()
		d.Stop()
	}()
	wg.Wait()
	st := d.Snapshot()
	if st.Queued != 0 && st.Running != 0 && st.Completed == 0 {
		t.Fatalf("implausible final stats: %+v", st)
	}
}

// TestDriverExpiresQueuedJobs: with eager admission off, a job whose
// DropLateFactor × SLO budget elapses before the first round tick is dropped
// at the planning boundary, never started.
func TestDriverExpiresQueuedJobs(t *testing.T) {
	d := newStoppedDriver(t, func(cfg *DriverConfig) {
		c := core.DefaultConfig()
		c.EagerAdmission = false
		prof := costmodel.BuildProfile(costmodel.NewEstimator(cfg.Model, cfg.Topo), costmodel.ProfilerConfig{})
		cfg.Scheduler = core.NewScheduler(prof, cfg.Topo, c)
		cfg.DropLateFactor = 1.0
	})
	d.Start()
	t.Cleanup(d.Stop)
	// 1ms SLO at speedup 200: the budget is long gone by the first τ = 1s
	// round boundary (5ms wall).
	job, err := d.Submit(workload.Prompt{Text: "too late"}, model.Res256, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if j, ok := d.JobStatus(job.ID); ok && j.State == JobDropped {
			st := d.Snapshot()
			if st.Dropped != 1 || st.Queued != 0 {
				t.Fatalf("drop accounting wrong: %+v", st)
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	j, _ := d.JobStatus(job.ID)
	t.Fatalf("job never expired (state %s)", j.State)
}

// TestDriverParksWhenIdle: a started driver with no work fires no round
// ticks, and once its only job completes the tick count stops growing.
func TestDriverParksWhenIdle(t *testing.T) {
	d := newTestDriver(t)
	if d.cfg.Scheduler.RoundDuration() <= 0 {
		t.Fatal("test needs a round-based scheduler")
	}
	time.Sleep(200 * time.Millisecond)
	if n := d.Snapshot().RoundTicks; n != 0 {
		t.Fatalf("idle driver fired %d round ticks, want 0", n)
	}
	job, err := d.Submit(workload.Prompt{Text: "one"}, model.Res256, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitForJob(t, d, job.ID, 10*time.Second)
	time.Sleep(50 * time.Millisecond) // the tick queued behind the block fires and parks
	before := d.Snapshot().RoundTicks
	time.Sleep(100 * time.Millisecond)
	if after := d.Snapshot().RoundTicks; before == 0 || after != before {
		t.Fatalf("round ticks %d, then %d 100ms later: want > 0 and parked", before, after)
	}
}

// stallSched is a round-based policy that never plans, so one submitted
// job keeps the loop busy (ticking every τ) indefinitely.
type stallSched struct{}

const stallTau = time.Second

func (stallSched) Name() string                               { return "stall" }
func (stallSched) RoundDuration() time.Duration               { return stallTau }
func (stallSched) Plan(*sched.PlanContext) []sched.Assignment { return nil }

// TestDriverRoundTicksStayOnGrid: on a busy loop each boundary is
// rescheduled from the fired tick's own time, not from the late wall-clock
// wake-up that dispatched it, so every gap between fired ticks is exactly τ.
func TestDriverRoundTicksStayOnGrid(t *testing.T) {
	d := newTestDriver(t, func(cfg *DriverConfig) { cfg.Scheduler = stallSched{} })
	if _, err := d.Submit(workload.Prompt{Text: "waits"}, model.Res256, 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	d.Stop()
	snap := d.Telemetry().Registry.Snapshot()
	gaps, sum := snap["tetriserve_round_duration_seconds_count"], snap["tetriserve_round_duration_seconds_sum"]
	if gaps < 5 || sum != gaps*stallTau.Seconds() {
		t.Fatalf("%v round gaps summing to %vs, want ≥ 5 of exactly τ each: the grid drifted", gaps, sum)
	}
	if ticks := d.Result().RoundTicks; float64(ticks) != gaps+1 {
		t.Fatalf("RoundTicks = %d, want one more than the %v observed gaps", ticks, gaps)
	}
}

// TestDriverFaultReroutesToSurvivors: after half the node fail-stops, new
// work completes on the remaining GPUs and /v1/stats-visible telemetry
// reflects the failure; recovery clears it.
func TestDriverFaultReroutesToSurvivors(t *testing.T) {
	d := newTestDriver(t)
	dead := simgpu.MaskOf(4, 5, 6, 7)
	if err := d.FailGPUs(dead); err != nil {
		t.Fatal(err)
	}
	job, err := d.Submit(workload.Prompt{Text: "survivor"}, model.Res512, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitForJob(t, d, job.ID, 10*time.Second)
	st := d.Snapshot()
	if len(st.FailedGPUs) != 4 {
		t.Fatalf("FailedGPUs = %v, want the 4 dead devices", st.FailedGPUs)
	}
	if err := d.RecoverGPUs(dead); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(d.Snapshot().FailedGPUs) == 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := d.Snapshot().FailedGPUs; len(got) != 0 {
		t.Fatalf("FailedGPUs = %v after recovery", got)
	}
	// The fault plane rejects commands once the driver is stopped.
	d.Stop()
	if err := d.FailGPUs(simgpu.MaskOf(0)); err == nil {
		t.Fatal("FailGPUs on a stopped driver accepted")
	}
}
