package cluster

import (
	"sync"
	"testing"
	"time"

	"ansmet/internal/stats"
)

// The shard breaker before the shards moved onto stats.Breakers, copied
// verbatim apart from its names and the state type's package qualifier. It
// is the reference the differential tests below drive the coordinator's
// breakers against.

// parentShardBreaker is one shard's circuit breaker. All methods are safe for
// concurrent use.
type parentShardBreaker struct {
	now func() time.Time // injectable clock for tests

	mu          sync.Mutex
	state       stats.BreakerState
	consecFails int
	reopens     int       // consecutive opens without a successful close
	probeAt     time.Time // when an open breaker admits its next probe
	rng         *stats.RNG
}

func newParentShardBreaker(cfg BreakerConfig, shard int, now func() time.Time) *parentShardBreaker {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &parentShardBreaker{now: now, rng: stats.NewRNG(seed + uint64(shard)*0x9e3779b97f4a7c15)}
}

// State returns the breaker position.
func (b *parentShardBreaker) State() stats.BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Allow reports whether a query may be sent to the shard. An open breaker
// admits one probe once its jittered backoff has elapsed (moving to
// half-open); probe reports whether the admitted query is that probe.
func (b *parentShardBreaker) Allow() (allowed, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stats.BreakerClosed:
		return true, false
	case stats.BreakerHalfOpen:
		return false, false
	default: // open
		if b.now().Before(b.probeAt) {
			return false, false
		}
		b.state = stats.BreakerHalfOpen
		return true, true
	}
}

// Success records a healthy shard response; a half-open probe success
// closes the breaker. It reports whether this call re-enabled the shard.
func (b *parentShardBreaker) Success() (reenabled bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	reenabled = b.state == stats.BreakerHalfOpen
	b.state = stats.BreakerClosed
	b.consecFails = 0
	b.reopens = 0
	return reenabled
}

// Failure records a shard failure (error or budget timeout). It reports
// whether this failure opened the breaker. Each consecutive re-open pushes
// the next probe further out on the jittered exponential schedule.
func (b *parentShardBreaker) Failure() (tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stats.BreakerHalfOpen:
		b.open()
		return true
	case stats.BreakerOpen:
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
func (b *parentShardBreaker) ReleaseProbe() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != stats.BreakerHalfOpen {
		return
	}
	b.state = stats.BreakerOpen
	step := b.reopens - 1
	if step < 0 {
		step = 0
	}
	b.probeAt = b.now().Add(probeDelay(step, b.rng))
}

// open transitions to BreakerOpen and schedules the next probe. Caller
// holds b.mu.
func (b *parentShardBreaker) open() {
	b.state = stats.BreakerOpen
	b.probeAt = b.now().Add(probeDelay(b.reopens, b.rng))
	b.reopens++
	b.consecFails = 0
}

// driveShardBreakers runs ops, one per byte, through a parent breaker per
// shard and through the coordinator's breakers side by side, and fails on
// the first return value or shard state that differs. The low three bits
// pick the op, the next two the shard, and the top two where a clock op
// lands (0 or 3 before, 1 at, 2 after). A clock op steps
// the fake clock to just before, exactly at or just after a shard's next
// probe time, so a jitter draw taken out of order shows up as a probe
// admitted or denied at the wrong instant. It returns the probes admitted.
func driveShardBreakers(t *testing.T, seed uint64, ops []byte) (probes int) {
	const shards = 3
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	cfg := BreakerConfig{Seed: seed}
	var parent [shards]*parentShardBreaker
	for s := range parent {
		parent[s] = newParentShardBreaker(cfg, s, clock)
	}
	got := newBreakers(cfg, shards, clock)
	for i, op := range ops {
		s := int(op>>3&3) % shards
		var what string
		var want, have [2]bool
		switch op & 7 {
		case 0, 1:
			what = "Allow"
			want[0], want[1] = parent[s].Allow()
			have[0], have[1] = got.Allow(s)
			if want[1] {
				probes++
			}
		case 2:
			what = "Success"
			want[0], have[0] = parent[s].Success(), got.Success(s)
		case 3, 4:
			what = "Failure"
			want[0], have[0] = parent[s].Failure(), got.Failure(s)
		case 5:
			what = "ReleaseProbe"
			parent[s].ReleaseProbe()
			got.ReleaseProbe(s)
		default:
			what = "clock"
			at := parent[s].probeAt.Add(time.Duration(int(op>>6)%3 - 1))
			if at.After(now) {
				now = at
			} else {
				now = now.Add(time.Duration(op) * time.Millisecond)
			}
		}
		if want != have {
			t.Fatalf("op %d (%s, shard %d): got %v, parent %v", i, what, s, have, want)
		}
		degraded := 0
		for m, p := range parent {
			w, g := p.State(), got.State(m)
			if w != g {
				t.Fatalf("op %d (%s, shard %d): shard %d is %v, parent %v", i, what, s, m, g, w)
			}
			if w != stats.BreakerClosed {
				degraded++
			}
		}
		if g := got.Degraded(); g != degraded {
			t.Fatalf("op %d (%s, shard %d): Degraded %d, parent %d", i, what, s, g, degraded)
		}
	}
	return probes
}

// TestShardBreakerMatchesParent drives seeded op sequences through the
// parent shard breaker and the coordinator's breakers.
func TestShardBreakerMatchesParent(t *testing.T) {
	probes := 0
	for seed := uint64(0); seed < 20; seed++ {
		rng := stats.NewRNG(seed)
		ops := make([]byte, 4000)
		for i := range ops {
			ops[i] = byte(rng.Uint64())
		}
		probes += driveShardBreakers(t, seed, ops)
	}
	if probes == 0 {
		t.Fatal("no probe was admitted: the sequences never reach half-open")
	}
}

func FuzzShardBreakerMatchesParent(f *testing.F) {
	// Shard 0: three crashes open it; a step to 1 ns before its probe time
	// and a denied Allow; a failure while open; a step past the probe time
	// and an admitted probe, released; a step to exactly the new probe time
	// and a probe that succeeds.
	f.Add(uint64(1), []byte{3, 3, 3, 6, 0, 3, 0x86, 0, 5, 0x46, 0, 2})
	f.Add(uint64(7), []byte{3, 11, 19, 3, 11, 19, 3, 11, 19, 6, 14, 22, 0, 8, 16, 2, 12, 21})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		driveShardBreakers(t, seed, ops)
	})
}
