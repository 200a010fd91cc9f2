package cluster

import (
	"time"

	"ansmet/internal/stats"
)

// Shard breakers live in a real serving process, so they re-enable on
// wall time rather than on a count of routed work: failureThreshold
// consecutive failures open a breaker, and an open breaker schedules its
// next probe probeDelay into the future — probeBase, doubling per
// consecutive re-open
// up to probeMax, then spread ±probeJitter — so a crashed shard costs one
// probe per interval instead of one failed RPC per query, and a fleet of
// coordinators does not re-probe a recovering shard in lockstep.
const (
	failureThreshold = 3
	probeBase        = 50 * time.Millisecond
	probeMax         = 2 * time.Second
	probeJitter      = 0.5
)

// probeStep is the unjittered delay after the reopen-th consecutive open
// (0-based): min(probeBase·2^reopen, probeMax).
func probeStep(reopen int) time.Duration {
	d := probeBase
	for i := 0; i < reopen && d < probeMax; i++ {
		d *= 2
	}
	return min(d, probeMax)
}

// probeDelay is the wait before the probe that follows the reopen-th
// consecutive open: uniform in [d·(1−probeJitter), d·(1+probeJitter)] for
// d = probeStep(reopen), and never above probeMax. rng supplies the jitter,
// so a seeded breaker's schedule is reproducible.
func probeDelay(reopen int, rng *stats.RNG) time.Duration {
	d := float64(probeStep(reopen)) * (1 - probeJitter + 2*probeJitter*rng.Float64())
	return time.Duration(min(d, float64(probeMax)))
}

// BreakerConfig seeds the per-shard circuit breakers.
type BreakerConfig struct {
	// Seed drives the probe jitter (default 1; each shard forks its own
	// stream).
	Seed uint64
}

// newBreakers builds the shards' breakers. A shard's clock reads wall
// nanoseconds since the coordinator started, and its wait is probeDelay
// drawn from the shard's own jitter stream.
func newBreakers(cfg BreakerConfig, shards int, now func() time.Time) *stats.Breakers {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	rngs := make([]*stats.RNG, shards)
	for s := range rngs {
		rngs[s] = stats.NewRNG(seed + uint64(s)*0x9e3779b97f4a7c15)
	}
	epoch := now()
	return stats.NewBreakers(shards, failureThreshold,
		func(int64) int64 { return int64(now().Sub(epoch)) },
		func(s, reopen int) int64 { return int64(probeDelay(reopen, rngs[s])) })
}
