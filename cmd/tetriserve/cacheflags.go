package main

import (
	"errors"
	"fmt"
	"math"

	"tetriserve/internal/core"
)

// Shard-mode flag error kinds, matching the -shards parser convention:
// distinguishable with errors.Is so tests assert on cause, not message.
var (
	ErrBadCacheInterval = errors.New("cache interval out of range")
	ErrBadQualityBudget = errors.New("quality budget out of range")
	ErrBadGranularity   = errors.New("step granularity must be positive")
	ErrBadSpeedup       = errors.New("speedup must be a positive finite number")
)

// cacheKnobs carries the validated step-cache flags for shard mode.
type cacheKnobs struct {
	// interval is the planner's MaxCacheInterval (1 = caching off).
	interval int
	// budgetFrac is the fraction of each submitted job's steps the planner
	// may approximate (0 = no budget, caching cannot engage).
	budgetFrac float64
}

// parseCacheKnobs validates -cache-interval and -quality-budget. The
// interval must lie in [1, core.MaxCacheIntervalCap] — the planner would
// silently clamp anything else, and a silently reinterpreted flag is a
// misconfiguration hidden from the operator. The budget is a fraction of
// each job's steps, so it must lie in [0, 1].
func parseCacheKnobs(interval int, budgetFrac float64) (cacheKnobs, error) {
	if interval < 1 || interval > core.MaxCacheIntervalCap {
		return cacheKnobs{}, fmt.Errorf("tetriserve: -cache-interval %d: %w (want 1..%d)",
			interval, ErrBadCacheInterval, core.MaxCacheIntervalCap)
	}
	if budgetFrac < 0 || budgetFrac > 1 {
		return cacheKnobs{}, fmt.Errorf("tetriserve: -quality-budget %v: %w (want 0..1)",
			budgetFrac, ErrBadQualityBudget)
	}
	return cacheKnobs{interval: interval, budgetFrac: budgetFrac}, nil
}

// checkShardFlags validates -granularity and -speedup. The scheduler would
// silently turn a non-positive granularity into 5 and the driver a
// non-positive speedup into 20; both are rejected here instead.
func checkShardFlags(granularity int, speedup float64) error {
	if granularity < 1 {
		return fmt.Errorf("tetriserve: -granularity %d: %w", granularity, ErrBadGranularity)
	}
	if !(speedup > 0) || math.IsInf(speedup, 1) {
		return fmt.Errorf("tetriserve: -speedup %v: %w", speedup, ErrBadSpeedup)
	}
	return nil
}
