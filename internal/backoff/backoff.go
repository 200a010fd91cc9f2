// Package backoff implements jittered exponential backoff, shared by the
// engine-level retry loop (engine.Resilient) and the cluster-level shard
// circuit breakers (internal/cluster). Fixed-cadence retries synchronize:
// when many callers fail at the same moment they all retry at the same
// moment too, hammering the recovering resource in lockstep. Jitter
// decorrelates them.
//
// Delays are computed, not slept: callers decide whether a delay means
// time.Sleep (retry pacing) or a re-enable timestamp (breaker probes).
// Randomness comes from a caller-supplied seeded RNG so every schedule is
// reproducible — the same property the fault injector and simulator rely
// on everywhere else in this codebase.
package backoff

import (
	"time"

	"ansmet/internal/stats"
)

// Policy describes an exponential backoff schedule with proportional
// jitter. The zero value is usable after WithDefaults; a zero Base disables
// backoff entirely (Delay returns 0), which is what the functional
// simulator wants on its retry path.
type Policy struct {
	// Base is the delay before the first retry; attempt n waits about
	// Base·2^n (the delay doubles per attempt). Zero disables backoff.
	Base time.Duration
	// Max caps the grown delay before jitter is applied (default 30·Base).
	Max time.Duration
	// Jitter is the proportional jitter width in [0, 1] (default 0.5): the
	// returned delay is uniform in [d·(1−Jitter), d·(1+Jitter)], clamped to
	// Max. Negative disables jitter (exactly d); note zero takes the
	// default, use a tiny negative value for "no jitter" explicitly.
	Jitter float64
}

// WithDefaults fills zero fields with the defaults above.
func (p Policy) WithDefaults() Policy {
	if p.Max == 0 {
		p.Max = 30 * p.Base
	}
	if p.Jitter == 0 {
		p.Jitter = 0.5
	}
	return p
}

// Delay returns the jittered delay before retry `attempt` (0-based: the
// wait between the first failure and the first retry is attempt 0). rng
// supplies the jitter; a nil rng returns the un-jittered exponential delay.
// Delay never returns a negative duration and never exceeds Max.
func (p Policy) Delay(attempt int, rng *stats.RNG) time.Duration {
	p = p.WithDefaults()
	if p.Base <= 0 {
		return 0
	}
	if attempt < 0 {
		attempt = 0
	}
	d := float64(p.Base)
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= float64(p.Max) {
			d = float64(p.Max)
			break
		}
	}
	if rng != nil && p.Jitter > 0 {
		// Uniform in [d·(1−j), d·(1+j)].
		d *= 1 - p.Jitter + 2*p.Jitter*rng.Float64()
	}
	if d > float64(p.Max) {
		d = float64(p.Max)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}
