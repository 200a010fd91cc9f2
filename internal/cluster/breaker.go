package cluster

import (
	"fmt"
	"sync"
	"time"

	"ansmet/internal/stats"
)

// BreakerState is one shard breaker's position.
type BreakerState int

const (
	// BreakerClosed routes queries to the shard normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen skips the shard entirely until its jittered probe delay
	// elapses; skipped shards make the merged result partial.
	BreakerOpen
	// BreakerHalfOpen has one probe query in flight on the shard.
	BreakerHalfOpen
)

var breakerNames = [...]string{"closed", "open", "half-open"}

// String names the state.
func (s BreakerState) String() string {
	if s < 0 || int(s) >= len(breakerNames) {
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
	return breakerNames[s]
}

// Unlike the fault model's comparison-counted breakers (fault.BreakerSet,
// which must stay wall-clock-free for simulator determinism), shard breakers
// live in a real serving process and re-enable on wall time: failureThreshold
// consecutive failures open a breaker, and an open breaker schedules its next
// probe probeDelay into the future — probeBase, doubling per consecutive
// re-open up to probeMax, then spread ±probeJitter — so a crashed shard costs
// one probe per interval instead of one failed RPC per query, and a fleet of
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

// shardBreaker is one shard's circuit breaker. All methods are safe for
// concurrent use.
type shardBreaker struct {
	now func() time.Time // injectable clock for tests

	mu          sync.Mutex
	state       BreakerState
	consecFails int
	reopens     int       // consecutive opens without a successful close
	probeAt     time.Time // when an open breaker admits its next probe
	rng         *stats.RNG
}

func newShardBreaker(cfg BreakerConfig, shard int, now func() time.Time) *shardBreaker {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &shardBreaker{now: now, rng: stats.NewRNG(seed + uint64(shard)*0x9e3779b97f4a7c15)}
}

// State returns the breaker position.
func (b *shardBreaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Allow reports whether a query may be sent to the shard. An open breaker
// admits one probe once its jittered backoff has elapsed (moving to
// half-open); probe reports whether the admitted query is that probe.
func (b *shardBreaker) Allow() (allowed, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, false
	case BreakerHalfOpen:
		return false, false
	default: // open
		if b.now().Before(b.probeAt) {
			return false, false
		}
		b.state = BreakerHalfOpen
		return true, true
	}
}

// Success records a healthy shard response; a half-open probe success
// closes the breaker. It reports whether this call re-enabled the shard.
func (b *shardBreaker) Success() (reenabled bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	reenabled = b.state == BreakerHalfOpen
	b.state = BreakerClosed
	b.consecFails = 0
	b.reopens = 0
	return reenabled
}

// Failure records a shard failure (error or budget timeout). It reports
// whether this failure opened the breaker. Each consecutive re-open pushes
// the next probe further out on the jittered exponential schedule.
func (b *shardBreaker) Failure() (tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.open()
		return true
	case BreakerOpen:
		return false
	default:
		b.consecFails++
		if b.consecFails >= failureThreshold {
			b.open()
			return true
		}
		return false
	}
}

// ReleaseProbe returns a half-open breaker to open without recording a
// verdict — used when the probe query was cancelled by the client rather
// than failed by the shard, so the probe never really ran. The next probe
// is re-scheduled on the same backoff step (reopens is not advanced).
func (b *shardBreaker) ReleaseProbe() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != BreakerHalfOpen {
		return
	}
	b.state = BreakerOpen
	step := b.reopens - 1
	if step < 0 {
		step = 0
	}
	b.probeAt = b.now().Add(probeDelay(step, b.rng))
}

// open transitions to BreakerOpen and schedules the next probe. Caller
// holds b.mu.
func (b *shardBreaker) open() {
	b.state = BreakerOpen
	b.probeAt = b.now().Add(probeDelay(b.reopens, b.rng))
	b.reopens++
	b.consecFails = 0
}
