package engine

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

// RunPreemption is the abort record for a planned capacity change, the
// cooperative sibling of RunFailure: the block stopped because its GPUs were
// donated to another shard, not because they died. Completed steps are
// credited and the latent survives on the group's retained members — the
// next placement pays the §5 re-transfer, but no work is lost.
type RunPreemption struct {
	// Run is the preempted block (already retired from the engine).
	Run *Run
	// Departed is the subset of the run's group the shard gave up.
	Departed simgpu.Mask
	// At is the resize time; the block stops making progress here.
	At time.Duration
	// StepsDone maps each member to the denoising steps it fully completed
	// before the preemption.
	StepsDone map[workload.RequestID]int
}

// Error implements error, mirroring RunFailure so a preemption can never be
// silently swallowed as a nil.
func (p *RunPreemption) Error() string {
	return fmt.Sprintf("engine: run %d preempted at %s: GPUs %v resized out from group %v",
		p.Run.ID, p.At, p.Departed, p.Run.Asg.Group)
}

// RunsPreempted returns how many in-flight blocks capacity resizes have
// preempted.
func (e *Engine) RunsPreempted() int { return e.runsPreempted }

// Resizes returns how many effective capacity changes have been applied.
func (e *Engine) Resizes() int { return e.resizes }

// Resize changes the engine's owned GPU set to newMask at time now,
// returning a RunPreemption per in-flight block that lost GPUs. Resize is the
// planned, cooperative counterpart of FailGPUs:
//
//   - departing GPUs are healthy, so every completed step is credited and the
//     latent is retained on the group's surviving members (kept even when the
//     whole group departs, so the next placement is a reconfiguration — the
//     §5 re-transfer — not a free first placement);
//   - only warm groups that overlap the departing set are invalidated; the
//     rest of the shard's NCCL state is untouched;
//   - arriving GPUs join the free pool immediately (cold: their warm groups,
//     if any, belong to their previous owner) unless currently failed.
//
// Preemptions come in run-ID order. Callers own the event bookkeeping
// exactly as for FailGPUs: a preempted run's completion event must be
// cancelled.
func (e *Engine) Resize(now time.Duration, newMask simgpu.Mask) []*RunPreemption {
	newMask &= e.topo.AllMask()
	departing := e.capacity.Without(newMask)
	arriving := newMask.Without(e.capacity)
	if departing == 0 && arriving == 0 {
		return nil
	}
	e.resizes++
	e.capacity = newMask
	e.free = e.free.Without(departing).Union(arriving.Without(e.failed))
	if departing != 0 {
		e.groups.Invalidate(departing)
	}

	var preemptions []*RunPreemption
	for _, run := range e.runs {
		if !run.Asg.Group.Overlaps(departing) {
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
			// Presence-based "has started" test, matching the fault path: the
			// transfer onto this group was paid at block start, so the latent
			// lives on the retained, healthy members even if the previous
			// latent mask was wholly lost.
			if _, started := e.latents[id]; d > 0 || started {
				e.latents[id] = run.Asg.Group.Without(departing).Without(e.failed)
			}
		}
		delete(e.runs, run.ID)
		e.free = e.free.Union(run.Asg.Group.Without(departing).Without(e.failed))
		e.runsPreempted++
		preemptions = append(preemptions, &RunPreemption{
			Run:       run,
			Departed:  run.Asg.Group & departing,
			At:        now,
			StepsDone: stepsDone,
		})
	}
	// Run-ID order, as in FailGPUs: the map walk's order is random.
	slices.SortFunc(preemptions, func(a, b *RunPreemption) int { return cmp.Compare(a.Run.ID, b.Run.ID) })
	for _, p := range preemptions {
		e.gpuBusySeconds += float64(p.Run.Degree) * (now - p.Run.Start).Seconds()
	}

	// Parked latents lose their departed shards too — the devices now belong
	// to another shard; entries are kept so resumption pays reconfiguration.
	if departing != 0 {
		for id, m := range e.latents {
			if m.Overlaps(departing) {
				e.latents[id] = m.Without(departing)
			}
		}
	}
	return preemptions
}
