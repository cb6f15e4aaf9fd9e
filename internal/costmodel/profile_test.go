package costmodel

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"tetriserve/internal/model"
	"tetriserve/internal/stats"
)

func buildFluxProfile(t *testing.T) *Profile {
	t.Helper()
	return BuildProfile(fluxEst(), ProfilerConfig{})
}

func TestProfileCoversStandardGrid(t *testing.T) {
	p := buildFluxProfile(t)
	for _, res := range model.StandardResolutions() {
		if !p.Has(res) {
			t.Fatalf("profile missing %v", res)
		}
		for _, k := range []int{1, 2, 4, 8} {
			for _, bs := range []int{1, 2, 4, 8} {
				if _, ok := p.Lookup(res, k, bs); !ok {
					t.Fatalf("profile missing (%v, k=%d, bs=%d)", res, k, bs)
				}
			}
		}
	}
	if len(p.Resolutions()) != 4 {
		t.Fatalf("Resolutions() = %v", p.Resolutions())
	}
}

// TestTable1CVsBelowPaperBound: the paper reports execution CVs below 0.7%
// in every configuration; the profiled table must reproduce that stability.
func TestTable1CVsBelowPaperBound(t *testing.T) {
	p := buildFluxProfile(t)
	for _, res := range model.StandardResolutions() {
		for _, k := range p.Degrees() {
			e, _ := p.Lookup(res, k, 1)
			if e.CV >= 0.007 {
				t.Errorf("CV(%v, k=%d) = %.4f, want < 0.007", res, k, e.CV)
			}
			if e.Samples != 20 {
				t.Errorf("samples = %d, want 20", e.Samples)
			}
		}
	}
}

func TestProfileMeansTrackEstimator(t *testing.T) {
	est := fluxEst()
	p := BuildProfile(est, ProfilerConfig{})
	for _, res := range model.StandardResolutions() {
		for _, k := range p.Degrees() {
			want := est.StepTimeDegree(res, k, 1)
			got := p.StepTime(res, k)
			rel := math.Abs(float64(got-want)) / float64(want)
			if rel > 0.01 {
				t.Errorf("profiled mean for (%v,k=%d) off by %.3f%%", res, k, 100*rel)
			}
		}
	}
}

func TestMinStepTime(t *testing.T) {
	p := buildFluxProfile(t)
	tm, k := p.MinStepTime(model.Res2048)
	if k != 8 {
		t.Fatalf("fastest degree for 2048px = %d, want 8", k)
	}
	for _, kk := range p.Degrees() {
		if p.StepTime(model.Res2048, kk) < tm {
			t.Fatal("MinStepTime not minimal")
		}
	}
	if p.BestLatencyDegree(model.Res2048) != 8 {
		t.Fatal("BestLatencyDegree disagrees with MinStepTime")
	}
}

func TestSmallResolutionPrefersLowDegree(t *testing.T) {
	p := buildFluxProfile(t)
	// For 256px the comm overhead makes SP=8 slower than SP=4; the
	// fastest degree should not be the largest.
	if _, k := p.MinStepTime(model.Res256); k == 8 {
		t.Fatal("256px fastest degree should not be 8 (comm-dominated)")
	}
}

func TestUnprofiledLookupPanics(t *testing.T) {
	p := buildFluxProfile(t)
	defer func() {
		if recover() == nil {
			t.Fatal("unprofiled resolution should panic")
		}
	}()
	p.StepTime(model.Resolution{W: 640, H: 640}, 1)
}

func TestProfileDeterministicAcrossBuilds(t *testing.T) {
	a := BuildProfile(fluxEst(), ProfilerConfig{Seed: 5})
	b := BuildProfile(fluxEst(), ProfilerConfig{Seed: 5})
	for _, res := range model.StandardResolutions() {
		for _, k := range a.Degrees() {
			if a.StepTime(res, k) != b.StepTime(res, k) {
				t.Fatal("same-seed profiles differ")
			}
		}
	}
}

func TestGPUSecondsDefinition(t *testing.T) {
	p := buildFluxProfile(t)
	res := model.Res1024
	want := 4 * p.StepTime(res, 4).Seconds()
	if got := p.GPUSeconds(res, 4); math.Abs(got-want) > 1e-12 {
		t.Fatalf("GPUSeconds = %v, want %v", got, want)
	}
}

func TestJitter(t *testing.T) {
	rng := stats.NewRNG(3)
	mean := 100 * time.Millisecond
	var acc stats.Running
	for i := 0; i < 20000; i++ {
		s := Jitter(mean, 0.002, rng)
		if s <= 0 {
			t.Fatal("jittered duration must stay positive")
		}
		acc.Add(s.Seconds())
	}
	if math.Abs(acc.Mean()-0.1) > 0.0005 {
		t.Fatalf("jitter mean %v, want ≈0.1", acc.Mean())
	}
	if cv := acc.CV(); cv < 0.001 || cv > 0.004 {
		t.Fatalf("jitter CV %v, want ≈0.002", cv)
	}
}

func TestJitterZeroSigma(t *testing.T) {
	rng := stats.NewRNG(3)
	if Jitter(time.Second, 0, rng) != time.Second {
		t.Fatal("zero sigma should be identity")
	}
}

func TestJitterClampsExtremes(t *testing.T) {
	rng := stats.NewRNG(3)
	for i := 0; i < 10000; i++ {
		if s := Jitter(time.Second, 5.0, rng); s < time.Second/2 {
			t.Fatalf("jitter fell below the 0.5x clamp: %v", s)
		}
	}
}

func TestCustomProfilerConfig(t *testing.T) {
	p := BuildProfile(fluxEst(), ProfilerConfig{
		Resolutions: []model.Resolution{model.Res512},
		Batches:     []int{1},
		Samples:     5,
		Noise:       0.001,
		Seed:        9,
	})
	if p.Has(model.Res1024) {
		t.Fatal("profile should only contain requested resolutions")
	}
	e, ok := p.Lookup(model.Res512, 2, 1)
	if !ok || e.Samples != 5 {
		t.Fatalf("custom config not honored: %+v ok=%v", e, ok)
	}
	if p.Noise != 0.001 {
		t.Fatalf("Noise = %v", p.Noise)
	}
}

func TestProfileTopoDegrees(t *testing.T) {
	p := BuildProfile(sd3Est(), ProfilerConfig{})
	if got := p.Degrees(); len(got) != 3 || got[2] != 4 {
		t.Fatalf("A40 profile degrees = %v, want [1 2 4]", got)
	}
	if p.MaxDegree() != 4 {
		t.Fatalf("MaxDegree = %d", p.MaxDegree())
	}
}

func TestExtendProfilesNewResolution(t *testing.T) {
	p := buildFluxProfile(t)
	res := model.Resolution{W: 768, H: 768}
	if p.Has(res) {
		t.Fatal("768px unexpectedly pre-profiled")
	}
	p.Extend(fluxEst(), res)
	if !p.Has(res) {
		t.Fatal("Extend did not add the resolution")
	}
	// Step time falls between the 512px and 1024px entries at SP=1.
	t768 := p.StepTime(res, 1)
	if t768 <= p.StepTime(model.Res512, 1) || t768 >= p.StepTime(model.Res1024, 1) {
		t.Fatalf("768px step time %v out of order", t768)
	}
	// Idempotent and deterministic.
	before := p.StepTime(res, 4)
	p.Extend(fluxEst(), res)
	if p.StepTime(res, 4) != before {
		t.Fatal("re-extension changed profiled values")
	}
}

func TestExtendRejectsInvalidResolution(t *testing.T) {
	p := buildFluxProfile(t)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid resolution accepted")
		}
	}()
	p.Extend(fluxEst(), model.Resolution{W: 17, H: 17})
}

// TestDenseIndexMatchesEntries: the dense read index answers exactly the
// profiled keys, through every reader, after each writer. The oracle is the
// profile's serialized entry list — the persisted artifact. Keys it does not
// list must be unprofiled: Lookup says so and StepTimeBatch panics.
func TestDenseIndexMatchesEntries(t *testing.T) {
	check := func(t *testing.T, p *Profile, exact bool) {
		t.Helper()
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var in profileJSON
		if err := json.Unmarshal(data, &in); err != nil {
			t.Fatal(err)
		}
		want := map[Key]profileEntryJSON{}
		for _, e := range in.Entries {
			want[Key{model.Resolution{W: e.W, H: e.H}, e.Degree, e.Batch}] = e
		}
		for key, e := range want {
			got, ok := p.Lookup(key.Res, key.Degree, key.Batch)
			if !ok || got.Mean.Microseconds() != e.MeanUS || got.CV != e.CV || got.Samples != e.Samples {
				t.Fatalf("Lookup%v = %+v, %v; want %+v", key, got, ok, e)
			}
			if exact && got.Mean != time.Duration(e.MeanUS)*time.Microsecond {
				t.Fatalf("Lookup%v mean %v, want exactly %dµs", key, got.Mean, e.MeanUS)
			}
			if tb := p.StepTimeBatch(key.Res, key.Degree, key.Batch); tb != got.Mean {
				t.Fatalf("StepTimeBatch%v = %v, want %v", key, tb, got.Mean)
			}
			if key.Batch == 1 {
				if st := p.StepTime(key.Res, key.Degree); st != got.Mean {
					t.Fatalf("StepTime%v = %v, want %v", key, st, got.Mean)
				}
				if g := p.GPUSeconds(key.Res, key.Degree); g != float64(key.Degree)*got.Mean.Seconds() {
					t.Fatalf("GPUSeconds%v = %v", key, g)
				}
			}
		}
		unprofiled := model.Resolution{W: 640, H: 640}
		for _, res := range append(p.Resolutions(), unprofiled) {
			if p.Has(res) != (want[Key{res, 1, 1}] != profileEntryJSON{}) {
				t.Fatalf("Has(%v) = %v disagrees with the entry list", res, p.Has(res))
			}
			for k := -1; k <= 2*p.MaxDegree()+1; k++ {
				for bs := -1; bs <= 17; bs++ {
					key := Key{res, k, bs}
					_, listed := want[key]
					if _, ok := p.Lookup(res, k, bs); ok != listed {
						t.Fatalf("Lookup%v ok = %v, listed = %v", key, ok, listed)
					}
					if !listed && !panics(func() { p.StepTimeBatch(res, k, bs) }) {
						t.Fatalf("StepTimeBatch%v did not panic on an unprofiled key", key)
					}
				}
			}
		}
	}

	for name, est := range map[string]*Estimator{"flux-h100": fluxEst(), "sd3-a40": sd3Est()} {
		t.Run(name, func(t *testing.T) {
			p := BuildProfile(est, ProfilerConfig{})
			check(t, p, false)
			p.Extend(est, model.Resolution{W: 768, H: 768})
			p.Extend(est, model.Resolution{W: 1024, H: 512})
			check(t, p, false)
			data, err := json.Marshal(p)
			if err != nil {
				t.Fatal(err)
			}
			var loaded Profile
			if err := json.Unmarshal(data, &loaded); err != nil {
				t.Fatal(err)
			}
			check(t, &loaded, true)
		})
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

func BenchmarkStepTimeBatch(b *testing.B) {
	p := BuildProfile(fluxEst(), ProfilerConfig{})
	res := model.StandardResolutions()
	b.ReportAllocs()
	b.ResetTimer()
	var sink time.Duration
	for i := 0; i < b.N; i++ {
		sink += p.StepTimeBatch(res[i%len(res)], 1<<(i%4), 1<<(i/4%4))
	}
	_ = sink
}
