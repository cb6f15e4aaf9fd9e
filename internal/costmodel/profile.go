package costmodel

import (
	"fmt"
	"sort"
	"time"

	"tetriserve/internal/model"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/stats"
)

// Key identifies one profiled configuration.
type Key struct {
	Res    model.Resolution
	Degree int
	Batch  int
}

// Entry is one profiled measurement: the mean per-step latency and its
// coefficient of variation over the profiling runs (Table 1 reports CVs
// below 0.7 %, which is what makes deadline-aware scheduling viable).
type Entry struct {
	Mean    time.Duration
	CV      float64
	Samples int
}

// Profile is the offline-profiled lookup table the scheduler consults at
// runtime (§4.2.1): per (resolution, degree, batch), the expected step time
// and derived GPU-seconds. Lookups never touch the analytical model, exactly
// as the paper's scheduler only reads pre-profiled values.
//
// The table is stored as a dense read index: one row per profiled
// resolution, each a flat array indexed by degree × batch, so a lookup is a
// short linear scan over the rows plus one array index — no hashing on the
// planner's and the probe's hot paths.
//
// Concurrency: every writer (BuildProfile, Extend, UnmarshalJSON) builds the
// complete index before it returns; nothing is built lazily, so every lookup
// method (StepTime, StepTimeBatch, MinStepTime, Lookup, Degrees,
// Resolutions, Has, …) is safe for any number of concurrent readers and any
// number of simulations or schedulers may share one Profile. Extend and
// UnmarshalJSON must not run concurrently with readers; the live server
// guarantees this by calling Extend only on the loop goroutine that owns all
// profile reads (see internal/server). Extend bumps Version so cached
// derivations (e.g. the scheduler's allocation memo) can invalidate.
type Profile struct {
	ModelName string
	TopoName  string
	// Noise is the relative step-time jitter (σ/μ) observed while
	// profiling; the engine reuses it when executing.
	Noise   float64
	degrees []int
	// rows is the dense index, sorted by pixel count (then width).
	rows []profileRow
	// cachedRelCost is γ, the relative cost of a cache-approximated step
	// (TaylorSeer/cache-dit style residual reuse): a cached step still pays
	// γ·T for the shallow layers and the residual patch-up. 0 < γ ≤ 1.
	cachedRelCost float64
	// version counts mutations (Extend calls that added entries, discount
	// recalibrations) so readers holding derived caches can detect staleness
	// cheaply.
	version uint64
}

// profileRow holds one resolution's entries: cells[k*stride+bs] is the entry
// for degree k and batch bs. A cell with a zero Mean is unprofiled; writers
// never store a non-positive mean.
type profileRow struct {
	res    model.Resolution
	stride int // largest profiled batch + 1
	cells  []Entry
}

// indexEntries builds the dense rows for a set of entries, sorted by pixel
// count then width so iteration (Resolutions, MarshalJSON) is deterministic.
// Keys must carry positive degrees and batches.
func indexEntries(entries map[Key]Entry) []profileRow {
	type dims struct{ maxK, maxBS int }
	shape := map[model.Resolution]dims{}
	for k := range entries {
		d := shape[k.Res]
		shape[k.Res] = dims{max(d.maxK, k.Degree), max(d.maxBS, k.Batch)}
	}
	rows := make([]profileRow, 0, len(shape))
	for res, d := range shape {
		rows = append(rows, profileRow{
			res:    res,
			stride: d.maxBS + 1,
			cells:  make([]Entry, (d.maxK+1)*(d.maxBS+1)),
		})
	}
	sortRows(rows)
	for k, e := range entries {
		for i := range rows {
			if r := &rows[i]; r.res == k.Res {
				r.cells[k.Degree*r.stride+k.Batch] = e
				break
			}
		}
	}
	return rows
}

func sortRows(rows []profileRow) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i].res, rows[j].res
		if a.Pixels() != b.Pixels() {
			return a.Pixels() < b.Pixels()
		}
		if a.W != b.W {
			return a.W < b.W
		}
		return a.H < b.H
	})
}

// DefaultCachedStepRelCost is the calibrated relative cost γ of a
// cache-approximated step, used when a profile predates the cache dimension.
const DefaultCachedStepRelCost = 0.3

// Version identifies the current table contents; it changes whenever Extend
// grows the profile. Two calls returning the same value bracket a span with
// no table mutations.
func (p *Profile) Version() uint64 { return p.version }

// Degrees returns the profiled sequence-parallel degrees in ascending order.
func (p *Profile) Degrees() []int { return p.degrees }

// MaxDegree returns the largest profiled degree.
func (p *Profile) MaxDegree() int { return p.degrees[len(p.degrees)-1] }

// Lookup returns the entry for an exact key; it is the one read path into
// the dense index.
func (p *Profile) Lookup(res model.Resolution, k, bs int) (Entry, bool) {
	for i := range p.rows {
		r := &p.rows[i]
		if r.res != res {
			continue
		}
		if k <= 0 || bs <= 0 || bs >= r.stride {
			return Entry{}, false
		}
		if c := k*r.stride + bs; c < len(r.cells) && r.cells[c].Mean > 0 {
			return r.cells[c], true
		}
		return Entry{}, false
	}
	return Entry{}, false
}

// StepTime returns the profiled per-step latency at degree k, batch 1.
// Unprofiled configurations panic: the scheduler must never silently invent
// latencies for workloads it was not calibrated on.
func (p *Profile) StepTime(res model.Resolution, k int) time.Duration {
	return p.StepTimeBatch(res, k, 1)
}

// StepTimeBatch returns the profiled per-step latency for a batch of bs.
func (p *Profile) StepTimeBatch(res model.Resolution, k, bs int) time.Duration {
	e, ok := p.Lookup(res, k, bs)
	if !ok {
		panic(fmt.Sprintf("costmodel: unprofiled configuration %v k=%d bs=%d", res, k, bs))
	}
	return e.Mean
}

// GPUSeconds returns k × T(res,k) — the per-step GPU-hour cost the
// deadline-aware allocator minimizes.
func (p *Profile) GPUSeconds(res model.Resolution, k int) float64 {
	return float64(k) * p.StepTime(res, k).Seconds()
}

// CachedStepRelCost returns γ — the relative cost of a cache-approximated
// step. Profiles serialized before the cache dimension existed report the
// calibrated default.
func (p *Profile) CachedStepRelCost() float64 {
	if p.cachedRelCost <= 0 || p.cachedRelCost > 1 {
		return DefaultCachedStepRelCost
	}
	return p.cachedRelCost
}

// SetCachedStepRelCost recalibrates γ and bumps Version so memoized mixes
// derived from the old discount table invalidate. Values outside (0, 1]
// reset to the default.
func (p *Profile) SetCachedStepRelCost(gamma float64) {
	p.cachedRelCost = gamma
	p.version++
}

// CacheDiscount is the per-step cost multiplier at cache interval c: one
// full step out of every c, the remaining c−1 at relative cost gamma.
// Interval ≤ 1 (caching off) is exactly 1 so the legacy cost model is
// untouched; the discount is non-increasing in c for any gamma ≤ 1.
func CacheDiscount(gamma float64, interval int) float64 {
	if interval <= 1 {
		return 1
	}
	return (1 + gamma*float64(interval-1)) / float64(interval)
}

// CacheDiscount returns the profile's per-step cost multiplier at cache
// interval c — the third axis of T(res, k, cacheInterval).
func (p *Profile) CacheDiscount(interval int) float64 {
	return CacheDiscount(p.CachedStepRelCost(), interval)
}

// StepTimeCached is T(res, k, cacheInterval): the amortized per-step latency
// when every cacheInterval-th step runs fully and the rest reuse cached
// features. Interval ≤ 1 is exactly StepTime(res, k).
func (p *Profile) StepTimeCached(res model.Resolution, k, interval int) time.Duration {
	t := p.StepTime(res, k)
	if interval <= 1 {
		return t
	}
	return time.Duration(float64(t) * p.CacheDiscount(interval))
}

// MinStepTime returns the fastest profiled per-step latency for res and the
// degree achieving it — T_i^min in Algorithm 1's survival bound.
func (p *Profile) MinStepTime(res model.Resolution) (time.Duration, int) {
	best := time.Duration(0)
	bestK := 0
	for _, k := range p.degrees {
		t := p.StepTime(res, k)
		if bestK == 0 || t < best {
			best, bestK = t, k
		}
	}
	return best, bestK
}

// BestLatencyDegree returns the degree minimizing per-step latency.
func (p *Profile) BestLatencyDegree(res model.Resolution) int {
	_, k := p.MinStepTime(res)
	return k
}

// Resolutions returns the profiled resolutions sorted by token count.
func (p *Profile) Resolutions() []model.Resolution {
	out := make([]model.Resolution, len(p.rows))
	for i, r := range p.rows {
		out[i] = r.res
	}
	return out
}

// Has reports whether res was profiled at degree 1, batch 1.
func (p *Profile) Has(res model.Resolution) bool {
	_, ok := p.Lookup(res, 1, 1)
	return ok
}

// ProfilerConfig controls offline profiling.
type ProfilerConfig struct {
	// Resolutions to profile; defaults to the paper's four.
	Resolutions []model.Resolution
	// Batches to profile; defaults to {1, 2, 4, 8}.
	Batches []int
	// Samples per configuration; defaults to 20 (the paper profiles CV
	// over 20 steps).
	Samples int
	// Noise is the relative per-step jitter σ/μ; defaults to 0.002,
	// consistent with Table 1's sub-0.7 % CVs.
	Noise float64
	// CachedStepRelCost is γ, the relative cost of a cache-approximated
	// step; defaults to DefaultCachedStepRelCost.
	CachedStepRelCost float64
	// Seed makes profiling deterministic.
	Seed uint64
}

func (c *ProfilerConfig) defaults() {
	if len(c.Resolutions) == 0 {
		c.Resolutions = model.StandardResolutions()
	}
	if len(c.Batches) == 0 {
		c.Batches = []int{1, 2, 4, 8}
	}
	if c.Samples <= 0 {
		c.Samples = 20
	}
	if c.Noise == 0 {
		c.Noise = 0.002
	}
	if c.CachedStepRelCost <= 0 || c.CachedStepRelCost > 1 {
		c.CachedStepRelCost = DefaultCachedStepRelCost
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
}

// BuildProfile runs offline profiling: it "executes" Samples steps per
// (resolution, degree, batch) on the canonical GPU groups with measurement
// noise and records the mean and CV — producing the same artifact the
// paper's offline profiler produces on hardware.
func BuildProfile(est *Estimator, cfg ProfilerConfig) *Profile {
	cfg.defaults()
	rng := stats.NewRNG(cfg.Seed)
	p := &Profile{
		ModelName:     est.Model.Name,
		TopoName:      est.Topo.Name,
		Noise:         cfg.Noise,
		degrees:       est.Topo.Degrees(),
		cachedRelCost: cfg.CachedStepRelCost,
		version:       1,
	}
	entries := make(map[Key]Entry)
	for _, res := range cfg.Resolutions {
		for _, k := range p.degrees {
			group := simgpu.CanonicalGroup(0, k)
			for _, bs := range cfg.Batches {
				mean := est.StepTime(res, group, bs)
				var acc stats.Running
				for s := 0; s < cfg.Samples; s++ {
					sample := Jitter(mean, cfg.Noise, rng)
					acc.Add(sample.Seconds())
				}
				entries[Key{res, k, bs}] = Entry{
					Mean:    time.Duration(acc.Mean() * float64(time.Second)),
					CV:      acc.CV(),
					Samples: cfg.Samples,
				}
			}
		}
	}
	p.rows = indexEntries(entries)
	return p
}

// Extend profiles an additional resolution on demand and folds it into the
// table — how the serving daemon admits resolutions outside the standard
// four without restarting (the analytical estimator stands in for a quick
// online profiling pass; determinism comes from a resolution-derived seed).
// Extending an already-profiled resolution is a no-op.
func (p *Profile) Extend(est *Estimator, res model.Resolution) {
	if p.Has(res) {
		return
	}
	if !res.Valid() {
		panic(fmt.Sprintf("costmodel: cannot profile invalid resolution %v", res))
	}
	sub := BuildProfile(est, ProfilerConfig{
		Resolutions: []model.Resolution{res},
		Noise:       p.Noise,
		Seed:        uint64(res.W)<<20 ^ uint64(res.H) ^ 42,
	})
	p.rows = append(p.rows, sub.rows...)
	sortRows(p.rows)
	p.version++
}

// Jitter perturbs a nominal duration by Gaussian noise with relative σ,
// clamped to stay positive. Both the profiler and the execution engine use
// it so the scheduler sees exactly the variability the engine produces.
func Jitter(mean time.Duration, sigma float64, rng *stats.RNG) time.Duration {
	if sigma <= 0 {
		return mean
	}
	f := rng.Norm(1, sigma)
	if f < 0.5 {
		f = 0.5
	}
	return time.Duration(float64(mean) * f)
}
