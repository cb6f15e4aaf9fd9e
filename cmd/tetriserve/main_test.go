package main

import (
	"errors"
	"math"
	"testing"
)

func TestParseShards(t *testing.T) {
	t.Run("names and defaults", func(t *testing.T) {
		shards, err := parseShards("a=http://h1:8901, http://h2:8902 ,,")
		if err != nil {
			t.Fatal(err)
		}
		if len(shards) != 2 {
			t.Fatalf("got %d shards, want 2", len(shards))
		}
		if shards[0].Name() != "a" || shards[1].Name() != "http://h2:8902" {
			t.Fatalf("names = %q, %q", shards[0].Name(), shards[1].Name())
		}
	})
	t.Run("url with scheme is not a pair", func(t *testing.T) {
		// "http://..." contains '=' never, but a path-bearing LHS must not be
		// split as name=url.
		shards, err := parseShards("http://h1:8901/base=path")
		if err != nil {
			t.Fatal(err)
		}
		if shards[0].Name() != "http://h1:8901/base=path" {
			t.Fatalf("name = %q", shards[0].Name())
		}
	})
	for _, tc := range []struct {
		name, list string
		want       error
	}{
		{"empty", "", ErrNoShards},
		{"only separators", " , ,", ErrNoShards},
		{"duplicate explicit names", "a=http://h1,a=http://h2", ErrDuplicateShard},
		{"duplicate defaulted names", "http://h1,http://h1", ErrDuplicateShard},
		{"explicit name collides with url default", "h1:8901=http://h2,h1:8901", ErrDuplicateShard},
		{"empty url after name", "a=", ErrEmptyShardURL},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := parseShards(tc.list); !errors.Is(err, tc.want) {
				t.Fatalf("parseShards(%q) = %v, want %v", tc.list, err, tc.want)
			}
		})
	}
}

func TestParseWeights(t *testing.T) {
	t.Run("valid", func(t *testing.T) {
		w, err := parseWeights(" a=2, b = 0.5 ,")
		if err != nil {
			t.Fatal(err)
		}
		if w["a"] != 2 || w["b"] != 0.5 {
			t.Fatalf("weights = %v", w)
		}
	})
	t.Run("empty flag means no weights", func(t *testing.T) {
		w, err := parseWeights("  ")
		if err != nil || w != nil {
			t.Fatalf("got %v, %v; want nil, nil", w, err)
		}
	})
	for _, tc := range []struct {
		name, list string
		want       error
	}{
		{"missing equals", "a", ErrMalformedPair},
		{"empty tenant", "=2", ErrMalformedPair},
		{"only separators", ", ,", ErrMalformedPair},
		{"zero weight", "a=0", ErrBadWeight},
		{"negative weight", "a=-1", ErrBadWeight},
		{"non-numeric weight", "a=heavy", ErrBadWeight},
		{"duplicate tenant", "a=1,a=2", ErrDuplicateTenant},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := parseWeights(tc.list); !errors.Is(err, tc.want) {
				t.Fatalf("parseWeights(%q) = %v, want %v", tc.list, err, tc.want)
			}
		})
	}
}

func TestParseRebalanceGPUs(t *testing.T) {
	t.Run("valid", func(t *testing.T) {
		init, max, err := parseRebalanceGPUs("2:8, 0:4", 2)
		if err != nil {
			t.Fatal(err)
		}
		if init[0] != 2 || init[1] != 0 || max[0] != 8 || max[1] != 4 {
			t.Fatalf("init=%v max=%v", init, max)
		}
	})
	for _, tc := range []struct {
		name, list string
		n          int
		want       error
	}{
		{"count mismatch", "2:8", 2, ErrShardCount},
		{"empty with shards", "", 1, ErrShardCount},
		{"missing colon", "8,8", 2, ErrMalformedPair},
		{"init above max", "9:8", 1, ErrBadGPUCount},
		{"negative init", "-1:8", 1, ErrBadGPUCount},
		{"zero max", "0:0", 1, ErrBadGPUCount},
		{"non-numeric", "two:8", 1, ErrBadGPUCount},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := parseRebalanceGPUs(tc.list, tc.n); !errors.Is(err, tc.want) {
				t.Fatalf("parseRebalanceGPUs(%q, %d) = %v, want %v", tc.list, tc.n, err, tc.want)
			}
		})
	}
}

func TestParseCacheKnobs(t *testing.T) {
	for _, tc := range []struct {
		interval int
		budget   float64
		wantErr  error
	}{
		{1, 0, nil},
		{4, 0.5, nil},
		{8, 1, nil},
		{0, 0, ErrBadCacheInterval},
		{9, 0.25, ErrBadCacheInterval},
		{2, -0.01, ErrBadQualityBudget},
		{2, 1.01, ErrBadQualityBudget},
	} {
		got, err := parseCacheKnobs(tc.interval, tc.budget)
		if tc.wantErr == nil {
			if err != nil {
				t.Fatalf("parseCacheKnobs(%d, %v): unexpected error %v", tc.interval, tc.budget, err)
			}
			if got.interval != tc.interval || got.budgetFrac != tc.budget {
				t.Fatalf("parseCacheKnobs(%d, %v) = %+v", tc.interval, tc.budget, got)
			}
			continue
		}
		if !errors.Is(err, tc.wantErr) {
			t.Fatalf("parseCacheKnobs(%d, %v) error %v, want errors.Is %v", tc.interval, tc.budget, err, tc.wantErr)
		}
	}
}

func TestCheckShardFlags(t *testing.T) {
	for _, tc := range []struct {
		granularity int
		speedup     float64
		wantErr     error
	}{
		{5, 20, nil},
		{1, 0.5, nil},
		{0, 20, ErrBadGranularity},
		{-3, 20, ErrBadGranularity},
		{5, 0, ErrBadSpeedup},
		{5, -1, ErrBadSpeedup},
		{5, math.NaN(), ErrBadSpeedup},
		{5, math.Inf(1), ErrBadSpeedup},
	} {
		if err := checkShardFlags(tc.granularity, tc.speedup); !errors.Is(err, tc.wantErr) {
			t.Fatalf("checkShardFlags(%d, %v) error %v, want errors.Is %v", tc.granularity, tc.speedup, err, tc.wantErr)
		}
	}
}
