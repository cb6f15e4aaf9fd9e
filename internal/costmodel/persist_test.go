package costmodel

import (
	"encoding/json"
	"testing"

	"tetriserve/internal/model"
)

func TestProfileRoundTrip(t *testing.T) {
	orig := buildFluxProfile(t)
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var loaded Profile
	if err := json.Unmarshal(data, &loaded); err != nil {
		t.Fatal(err)
	}
	if loaded.ModelName != orig.ModelName || loaded.TopoName != orig.TopoName {
		t.Fatal("metadata lost in round trip")
	}
	if loaded.Noise != orig.Noise {
		t.Fatal("noise lost")
	}
	for _, res := range model.StandardResolutions() {
		for _, k := range orig.Degrees() {
			a := orig.StepTime(res, k)
			b := loaded.StepTime(res, k)
			// Serialization truncates to microseconds.
			diff := a - b
			if diff < 0 {
				diff = -diff
			}
			if diff > 1000 {
				t.Fatalf("step time drifted across round trip: %v vs %v", a, b)
			}
		}
	}
	// A loaded profile must drive the lookup helpers identically.
	if _, ka := orig.MinStepTime(model.Res2048); true {
		if _, kb := loaded.MinStepTime(model.Res2048); ka != kb {
			t.Fatal("fastest degree changed across round trip")
		}
	}
}

func TestProfileSerializationDeterministic(t *testing.T) {
	p := buildFluxProfile(t)
	a, _ := json.Marshal(p)
	b, _ := json.Marshal(p)
	if string(a) != string(b) {
		t.Fatal("profile serialization not deterministic")
	}
}

func TestProfileUnmarshalValidation(t *testing.T) {
	cases := []string{
		`{}`,
		`{"degrees":[1],"entries":[]}`,
		`{"degrees":[1],"entries":[{"w":256,"h":256,"degree":1,"batch":1,"mean_us":0}]}`,
		`not json`,
	}
	for _, c := range cases {
		var p Profile
		if err := json.Unmarshal([]byte(c), &p); err == nil {
			t.Errorf("invalid profile %q accepted", c)
		}
	}
}

// TestProfileGammaRoundTrip pins the cache dimension's calibration through
// serialization: a recalibrated γ survives the round trip exactly, and an
// untouched profile (γ unset) still reports the calibrated default on load.
func TestProfileGammaRoundTrip(t *testing.T) {
	orig := buildFluxProfile(t)
	orig.SetCachedStepRelCost(0.45)
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var loaded Profile
	if err := json.Unmarshal(data, &loaded); err != nil {
		t.Fatal(err)
	}
	if got := loaded.CachedStepRelCost(); got != 0.45 {
		t.Fatalf("γ after round trip = %v, want 0.45", got)
	}
	for _, c := range []int{1, 2, 4, 8} {
		if a, b := orig.CacheDiscount(c), loaded.CacheDiscount(c); a != b {
			t.Fatalf("CacheDiscount(%d) drifted across round trip: %v vs %v", c, a, b)
		}
	}

	// Pre-cache-dimension profiles (no cached_step_rel_cost field) load
	// with the calibrated default rather than a zero discount.
	legacy := buildFluxProfile(t)
	legacyData, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}
	var legacyLoaded Profile
	if err := json.Unmarshal(legacyData, &legacyLoaded); err != nil {
		t.Fatal(err)
	}
	if got := legacyLoaded.CachedStepRelCost(); got != DefaultCachedStepRelCost {
		t.Fatalf("legacy γ = %v, want default %v", got, DefaultCachedStepRelCost)
	}
}

// TestProfileVersionAfterUnmarshal guards the cache-invalidation contract:
// a loaded profile's version must land ≥ 1 (derived caches keyed on
// (profile, version) must never alias the zero value) and loading over an
// existing in-memory table must bump its version so memoized mixes
// derived from the old entries or discount table invalidate.
func TestProfileVersionAfterUnmarshal(t *testing.T) {
	data, err := json.Marshal(buildFluxProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	var fresh Profile
	if err := json.Unmarshal(data, &fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.Version() < 1 {
		t.Fatalf("freshly loaded profile version = %d, want >= 1", fresh.Version())
	}
	before := fresh.Version()
	if err := json.Unmarshal(data, &fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.Version() <= before {
		t.Fatalf("reloading did not bump version: %d -> %d", before, fresh.Version())
	}
}

// TestProfileUnmarshalRejectsWithoutSideEffects: every malformed table is
// refused as a whole — the receiver keeps its previous contents, version
// included, so a failed reload can never leave a half-loaded profile (or
// out-of-range indices into the dense table) behind.
func TestProfileUnmarshalRejectsWithoutSideEffects(t *testing.T) {
	const e11 = `{"w":256,"h":256,"degree":1,"batch":1,"mean_us":100}`
	const e21 = `{"w":256,"h":256,"degree":2,"batch":1,"mean_us":60}`
	cases := map[string]string{
		"not json":             `not json`,
		"no degrees":           `{"entries":[` + e11 + `]}`,
		"no entries":           `{"degrees":[1],"entries":[]}`,
		"gamma above one":      `{"degrees":[1],"cached_step_rel_cost":1.5,"entries":[` + e11 + `]}`,
		"zero degree listed":   `{"degrees":[0,1],"entries":[` + e11 + `]}`,
		"unsorted degrees":     `{"degrees":[2,1],"entries":[` + e11 + `,` + e21 + `]}`,
		"duplicate degrees":    `{"degrees":[1,1],"entries":[` + e11 + `]}`,
		"degree above mask":    `{"degrees":[1,128],"entries":[` + e11 + `]}`,
		"zero entry degree":    `{"degrees":[1],"entries":[` + e11 + `,{"w":256,"h":256,"degree":0,"batch":1,"mean_us":100}]}`,
		"entry degree too big": `{"degrees":[1],"entries":[` + e11 + `,{"w":256,"h":256,"degree":2,"batch":1,"mean_us":100}]}`,
		"zero batch":           `{"degrees":[1],"entries":[` + e11 + `,{"w":256,"h":256,"degree":1,"batch":0,"mean_us":100}]}`,
		"negative batch":       `{"degrees":[1],"entries":[` + e11 + `,{"w":256,"h":256,"degree":1,"batch":-2,"mean_us":100}]}`,
		"huge batch":           `{"degrees":[1],"entries":[` + e11 + `,{"w":256,"h":256,"degree":1,"batch":1000000,"mean_us":100}]}`,
		"invalid resolution":   `{"degrees":[1],"entries":[{"w":17,"h":17,"degree":1,"batch":1,"mean_us":100}]}`,
		"zero mean":            `{"degrees":[1],"entries":[{"w":256,"h":256,"degree":1,"batch":1,"mean_us":0}]}`,
		"bad entry last":       `{"degrees":[1,2],"entries":[` + e11 + `,` + e21 + `,{"w":256,"h":256,"degree":2,"batch":2,"mean_us":-1}]}`,
		"missing k=2 bs=1":     `{"degrees":[1,2],"entries":[` + e11 + `,{"w":256,"h":256,"degree":2,"batch":2,"mean_us":50}]}`,
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			p := buildFluxProfile(t)
			before, err := json.Marshal(p)
			if err != nil {
				t.Fatal(err)
			}
			version := p.Version()
			if err := json.Unmarshal([]byte(in), p); err == nil {
				t.Fatalf("invalid profile %s accepted", in)
			}
			after, err := json.Marshal(p)
			if err != nil {
				t.Fatal(err)
			}
			if string(after) != string(before) || p.Version() != version {
				t.Fatalf("rejected load changed the receiver (version %d -> %d)", version, p.Version())
			}
		})
	}

	// The smallest table the rules admit still loads.
	var p Profile
	if err := json.Unmarshal([]byte(`{"degrees":[1,2],"entries":[`+e11+`,`+e21+`]}`), &p); err != nil {
		t.Fatalf("minimal valid profile rejected: %v", err)
	}
}
