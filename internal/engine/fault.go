package engine

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

// RunFailure is the typed abort record the engine surfaces when a GPU fault
// kills an in-flight step block. It carries the steps each member had
// completed at the instant of failure so callers can credit partial
// progress and requeue the survivors. RunFailure implements error so the
// fault path can never be silently swallowed as a nil.
type RunFailure struct {
	// Run is the aborted block (already retired from the engine).
	Run *Run
	// Failed is the subset of the run's group that died.
	Failed simgpu.Mask
	// At is the fault time; the block stops making progress here.
	At time.Duration
	// StepsDone maps each member to the denoising steps it fully completed
	// before the fault (work after the last completed step is lost).
	StepsDone map[workload.RequestID]int
}

// Error implements error.
func (f *RunFailure) Error() string {
	return fmt.Sprintf("engine: run %d aborted at %s: GPUs %v failed under group %v",
		f.Run.ID, f.At, f.Failed, f.Run.Asg.Group)
}

// Failed returns the currently failed GPU mask.
func (e *Engine) FailedGPUs() simgpu.Mask { return e.failed }

// RunsAborted returns how many in-flight blocks GPU faults have killed.
func (e *Engine) RunsAborted() int { return e.runsAborted }

// FailGPUs marks the GPUs in mask as fail-stopped at time now. Every
// in-flight run whose group intersects the newly failed set is aborted and
// returned as a RunFailure: its surviving GPUs are freed, members are
// credited with the steps completed before the fault, and the latent copies
// that lived on dead GPUs are dropped (the surviving shard mask is kept so
// resuming on any group pays the §5 latent re-transfer and remap costs).
// Warm process groups containing a dead GPU are invalidated, so rebuilt
// groups pay NCCL warm-up again.
//
// Failures come in run-ID order. Callers own the event bookkeeping: an
// aborted run's completion event must be cancelled, since the engine has
// already retired it and a later Finish would error.
func (e *Engine) FailGPUs(now time.Duration, mask simgpu.Mask) []*RunFailure {
	newly := (mask & e.topo.AllMask()).Without(e.failed)
	if newly == 0 {
		return nil
	}
	e.failed = e.failed.Union(newly)
	e.free = e.free.Without(newly)
	e.groups.Invalidate(newly)

	var failures []*RunFailure
	for _, run := range e.runs {
		if !run.Asg.Group.Overlaps(newly) {
			continue
		}
		done := e.stepsCompletedBy(run, now)
		stepsDone := make(map[workload.RequestID]int, len(run.Steps))
		for id, n := range run.Steps {
			d := done
			if d > n {
				d = n
			}
			stepsDone[id] = d
			// The latent survives only on the group's live members; the
			// entry is kept (even when empty) so the next placement is a
			// reconfiguration, not a free first placement. Presence of the
			// entry — not a non-empty mask — is the "has started" test: the
			// transfer onto this group was already paid at block start, so
			// even a request whose previous latent was wholly lost now has
			// its state on the group's survivors.
			if _, started := e.latents[id]; d > 0 || started {
				e.latents[id] = run.Asg.Group.Without(e.failed)
			}
		}
		delete(e.runs, run.ID)
		e.free = e.free.Union(run.Asg.Group.Without(e.failed))
		e.runsAborted++
		failures = append(failures, &RunFailure{
			Run:       run,
			Failed:    run.Asg.Group & newly,
			At:        now,
			StepsDone: stepsDone,
		})
	}
	// The map walk above visits runs in random order. Callers requeue in
	// the order returned, and a float sum depends on the order of its terms.
	slices.SortFunc(failures, func(a, b *RunFailure) int { return cmp.Compare(a.Run.ID, b.Run.ID) })
	for _, f := range failures {
		e.gpuBusySeconds += float64(f.Run.Degree) * (now - f.Run.Start).Seconds()
	}

	// Latents of parked requests (between blocks) lose their dead shards too.
	for id, m := range e.latents {
		if m.Overlaps(newly) {
			e.latents[id] = m.Without(newly)
		}
	}
	return failures
}

// RecoverGPUs returns previously failed GPUs to service and reports which
// ones actually transitioned. Recovered devices come back cold: their warm
// groups were invalidated at fault time, so first collectives re-pay warm-up.
// A recovered GPU the shard no longer owns (resized away while failed) is
// healthy again but not free — it rejoins the pool only via a future Resize.
func (e *Engine) RecoverGPUs(mask simgpu.Mask) simgpu.Mask {
	recovered := mask & e.failed
	if recovered == 0 {
		return 0
	}
	e.failed = e.failed.Without(recovered)
	e.free = e.free.Union(recovered & e.capacity)
	return recovered
}

// stepsCompletedBy returns how many whole steps of a run had finished by t.
func (e *Engine) stepsCompletedBy(run *Run, t time.Duration) int {
	elapsed := t - run.Start - run.Overhead
	if elapsed <= 0 || run.StepTime <= 0 {
		return 0
	}
	return int(elapsed / run.StepTime)
}
