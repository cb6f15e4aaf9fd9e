package costmodel

import (
	"encoding/json"
	"fmt"
	"time"

	"tetriserve/internal/model"
)

// In production the offline profiling pass runs once per (model, hardware)
// pair and its lookup table is shipped with the deployment; this file makes
// the Profile a durable artifact (JSON) so the daemon can load it instead
// of re-profiling at startup.

// profileJSON is the serialized form.
type profileJSON struct {
	Model string  `json:"model"`
	Topo  string  `json:"topology"`
	Noise float64 `json:"noise"`
	// CachedStepRelCost is γ, the cache-approximated step's relative cost;
	// omitted (0) in profiles that predate the cache dimension, in which
	// case loading falls back to DefaultCachedStepRelCost.
	CachedStepRelCost float64            `json:"cached_step_rel_cost,omitempty"`
	Degrees           []int              `json:"degrees"`
	Entries           []profileEntryJSON `json:"entries"`
}

type profileEntryJSON struct {
	W       int     `json:"w"`
	H       int     `json:"h"`
	Degree  int     `json:"degree"`
	Batch   int     `json:"batch"`
	MeanUS  int64   `json:"mean_us"`
	CV      float64 `json:"cv"`
	Samples int     `json:"samples"`
}

// maxLoadedDim bounds the degrees and batches a loaded profile may carry:
// they index the dense table directly. Degrees cannot exceed the 64-bit GPU
// mask; 64 is also far above any profiled batch size.
const maxLoadedDim = 64

// MarshalJSON implements json.Marshaler with deterministic entry order:
// by resolution (pixel count, then width), degree, batch.
func (p *Profile) MarshalJSON() ([]byte, error) {
	out := profileJSON{
		Model:             p.ModelName,
		Topo:              p.TopoName,
		Noise:             p.Noise,
		CachedStepRelCost: p.cachedRelCost,
		Degrees:           p.degrees,
	}
	for _, r := range p.rows {
		for c, e := range r.cells {
			if e.Mean <= 0 {
				continue
			}
			out.Entries = append(out.Entries, profileEntryJSON{
				W: r.res.W, H: r.res.H, Degree: c / r.stride, Batch: c % r.stride,
				MeanUS: e.Mean.Microseconds(), CV: e.CV, Samples: e.Samples,
			})
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler. The whole table is decoded and
// validated before anything is assigned: on error the receiver is unchanged.
func (p *Profile) UnmarshalJSON(data []byte) error {
	var in profileJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("costmodel: decoding profile: %w", err)
	}
	if len(in.Degrees) == 0 || len(in.Entries) == 0 {
		return fmt.Errorf("costmodel: profile missing degrees or entries")
	}
	if in.CachedStepRelCost < 0 || in.CachedStepRelCost > 1 {
		return fmt.Errorf("costmodel: cached_step_rel_cost %v outside [0, 1]", in.CachedStepRelCost)
	}
	for i, k := range in.Degrees {
		if k < 1 || k > maxLoadedDim || (i > 0 && k <= in.Degrees[i-1]) {
			return fmt.Errorf("costmodel: degrees %v not strictly ascending within [1, %d]", in.Degrees, maxLoadedDim)
		}
	}
	maxK := in.Degrees[len(in.Degrees)-1]
	entries := make(map[Key]Entry, len(in.Entries))
	for _, e := range in.Entries {
		res := model.Resolution{W: e.W, H: e.H}
		switch {
		case !res.Valid():
			return fmt.Errorf("costmodel: invalid resolution %dx%d", e.W, e.H)
		case e.Degree < 1 || e.Degree > maxK:
			return fmt.Errorf("costmodel: degree %d for %v outside [1, %d]", e.Degree, res, maxK)
		case e.Batch < 1 || e.Batch > maxLoadedDim:
			return fmt.Errorf("costmodel: batch %d for %v outside [1, %d]", e.Batch, res, maxLoadedDim)
		case e.MeanUS <= 0:
			return fmt.Errorf("costmodel: non-positive step time for %v k=%d", res, e.Degree)
		}
		entries[Key{Res: res, Degree: e.Degree, Batch: e.Batch}] = Entry{
			Mean:    time.Duration(e.MeanUS) * time.Microsecond,
			CV:      e.CV,
			Samples: e.Samples,
		}
	}
	// Every profiled resolution must cover every degree at batch 1: the
	// scheduler reads those cells unconditionally, so a gap would panic at
	// first use instead of failing here.
	for key := range entries {
		for _, k := range in.Degrees {
			if _, ok := entries[Key{Res: key.Res, Degree: k, Batch: 1}]; !ok {
				return fmt.Errorf("costmodel: profile missing %v k=%d bs=1", key.Res, k)
			}
		}
	}
	p.ModelName = in.Model
	p.TopoName = in.Topo
	p.Noise = in.Noise
	p.cachedRelCost = in.CachedStepRelCost
	p.degrees = in.Degrees
	p.rows = indexEntries(entries)
	// A loaded table is as real as a freshly built one: version must land
	// ≥ 1 so derived caches keyed on (profile, version) never alias a loaded
	// profile with the zero value, and loading over an existing table must
	// bump — the entries or the discount table may differ, and memoized
	// mixes derived from the old values have to invalidate.
	p.version++
	return nil
}
