package fault_test

import (
	"sync"
	"testing"

	"ansmet/internal/fault"
	"ansmet/internal/stats"
)

// The rank breakers before the ranks moved onto stats.Breakers, copied
// verbatim apart from their names and the state type's package qualifier.
// They are the reference the differential tests below drive
// fault.NewBreakerSet against.

type parentBreaker struct {
	state       stats.BreakerState
	consecFails int
	sinceOpen   int // fallback comparisons routed away since opening
}

// parentBreakerSet holds one circuit breaker per NDP rank, shared by every
// worker's resilient engine. All methods are safe for concurrent use.
type parentBreakerSet struct {
	cfg fault.ResilienceConfig
	mu  sync.Mutex
	b   []parentBreaker
}

// newParentBreakerSet creates closed breakers for `ranks` ranks.
func newParentBreakerSet(ranks int, cfg fault.ResilienceConfig) *parentBreakerSet {
	if ranks < 1 {
		ranks = 1
	}
	return &parentBreakerSet{cfg: cfg.WithDefaults(), b: make([]parentBreaker, ranks)}
}

// State returns rank's current breaker state.
func (s *parentBreakerSet) State(rank int) stats.BreakerState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rank < 0 || rank >= len(s.b) {
		return stats.BreakerClosed
	}
	return s.b[rank].state
}

// DegradedRanks counts ranks whose breaker is not closed.
func (s *parentBreakerSet) DegradedRanks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, b := range s.b {
		if b.state != stats.BreakerClosed {
			n++
		}
	}
	return n
}

// Allow reports whether a comparison touching rank may use the primary
// engine. An open breaker admits one probe after ProbeAfter fallback
// routings (moving to half-open); otherwise the caller must use the
// fallback. probe reports whether the admitted comparison is that probe.
func (s *parentBreakerSet) Allow(rank int) (allowed, probe bool) {
	return s.AllowAll([]int{rank})
}

// AllowAll is Allow over every rank serving one comparison, decided
// atomically: the comparison runs on the primary only if no serving rank
// is open (or all open ranks are due for their probe, which this call then
// admits as one joint probe). Open ranks denied here advance their
// fallback-routing counts toward the next probe.
func (s *parentBreakerSet) AllowAll(ranks []int) (allowed, probe bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	allowed = true
	for _, r := range ranks {
		if r < 0 || r >= len(s.b) {
			continue
		}
		b := &s.b[r]
		switch b.state {
		case stats.BreakerHalfOpen: // a probe is already in flight
			allowed = false
		case stats.BreakerOpen:
			b.sinceOpen++
			if b.sinceOpen < s.cfg.ProbeAfter {
				allowed = false
			}
		}
	}
	if !allowed {
		return false, false
	}
	for _, r := range ranks {
		if r < 0 || r >= len(s.b) {
			continue
		}
		b := &s.b[r]
		if b.state == stats.BreakerOpen {
			b.state = stats.BreakerHalfOpen
			probe = true
		}
	}
	return true, probe
}

// ReleaseProbe returns a half-open rank to open without recording an
// attributed failure — used when a joint probe failed because of a
// *different* rank, so this rank's probe never really ran.
func (s *parentBreakerSet) ReleaseProbe(rank int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rank < 0 || rank >= len(s.b) {
		return
	}
	b := &s.b[rank]
	if b.state == stats.BreakerHalfOpen {
		b.state = stats.BreakerOpen
		b.sinceOpen = 0
	}
}

// Success records a successful primary comparison on rank; a half-open
// probe success closes the breaker. It reports whether the rank was
// re-enabled by this call.
func (s *parentBreakerSet) Success(rank int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rank < 0 || rank >= len(s.b) {
		return false
	}
	b := &s.b[rank]
	reenabled := b.state == stats.BreakerHalfOpen
	b.state = stats.BreakerClosed
	b.consecFails = 0
	b.sinceOpen = 0
	return reenabled
}

// Failure records an exhausted-retries comparison failure on rank. It
// reports whether this failure tripped the breaker open (from closed after
// FailureThreshold consecutive failures, or re-opened from half-open).
func (s *parentBreakerSet) Failure(rank int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rank < 0 || rank >= len(s.b) {
		return false
	}
	b := &s.b[rank]
	switch b.state {
	case stats.BreakerHalfOpen:
		b.state = stats.BreakerOpen
		b.sinceOpen = 0
		return true
	case stats.BreakerOpen:
		return false
	default:
		b.consecFails++
		if b.consecFails >= s.cfg.FailureThreshold {
			b.state = stats.BreakerOpen
			b.sinceOpen = 0
			return true
		}
		return false
	}
}

// driveRankBreakers runs ops through the parent breaker set and
// fault.NewBreakerSet side by side over three ranks, and fails on the first
// return value or rank state that differs. The low three bits of a byte
// pick the op and the rest its rank, from −1 to 3 so that out-of-range
// ranks are driven too; an AllowAll takes its 1–4 members from the bytes
// that follow it, duplicates included. The seed picks the failure
// threshold and ProbeAfter (0 for either is the default). It returns the
// probes admitted.
func driveRankBreakers(t *testing.T, seed uint64, ops []byte) (probes int) {
	const ranks = 3
	cfg := fault.ResilienceConfig{FailureThreshold: int(seed % 5), ProbeAfter: int(seed / 5 % 6)}
	parent, got := newParentBreakerSet(ranks, cfg), fault.NewBreakerSet(ranks, cfg)
	rank := func(b byte) int { return int(b)%(ranks+2) - 1 }
	for i := 0; i < len(ops); i++ {
		op, r := ops[i]&7, rank(ops[i]>>3)
		var what string
		var want, have [2]bool
		switch op {
		case 0, 1:
			what = "Allow"
			want[0], want[1] = parent.Allow(r)
			have[0], have[1] = got.Allow(r)
		case 2, 3:
			what = "AllowAll"
			var members []int
			for n := int(ops[i]>>3&3) + 1; n > 0 && i+1 < len(ops); n-- {
				i++
				members = append(members, rank(ops[i]))
			}
			want[0], want[1] = parent.AllowAll(members)
			have[0], have[1] = got.AllowAll(members)
		case 4:
			what = "Success"
			want[0], have[0] = parent.Success(r), got.Success(r)
		case 5, 6:
			what = "Failure"
			want[0], have[0] = parent.Failure(r), got.Failure(r)
		default:
			what = "ReleaseProbe"
			parent.ReleaseProbe(r)
			got.ReleaseProbe(r)
		}
		if want != have {
			t.Fatalf("op %d (%s, rank %d): got %v, parent %v", i, what, r, have, want)
		}
		if want[1] {
			probes++
		}
		for m := -1; m <= ranks; m++ {
			if w, g := parent.State(m), got.State(m); w != g {
				t.Fatalf("op %d (%s, rank %d): rank %d is %v, parent %v", i, what, r, m, g, w)
			}
		}
		if w, g := parent.DegradedRanks(), got.Degraded(); w != g {
			t.Fatalf("op %d (%s, rank %d): Degraded %d, parent %d", i, what, r, g, w)
		}
	}
	return probes
}

// TestRankBreakersMatchParent drives seeded op sequences through the parent
// breaker set and fault.NewBreakerSet.
func TestRankBreakersMatchParent(t *testing.T) {
	probes := 0
	for seed := uint64(0); seed < 60; seed++ {
		rng := stats.NewRNG(seed)
		ops := make([]byte, 4000)
		for i := range ops {
			ops[i] = byte(rng.Uint64())
		}
		probes += driveRankBreakers(t, seed, ops)
	}
	if probes == 0 {
		t.Fatal("no probe was admitted: the sequences never reach half-open")
	}
}

func FuzzRankBreakersMatchParent(f *testing.F) {
	// Threshold 1, ProbeAfter 2: ranks 0 and 1 fail and open; a joint
	// AllowAll over {0, 1, 1} is denied, the next is the joint probe; rank 1
	// fails it, rank 0 is released and probes again alone.
	f.Add(uint64(11), []byte{8 + 5, 16 + 5, 19, 1, 2, 2, 19, 1, 2, 2, 16 + 5, 8 + 7, 8, 8, 8 + 4})
	f.Add(uint64(0), []byte{5, 5, 5, 5, 0, 0, 7, 4, 2, 0, 4, 4})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		driveRankBreakers(t, seed, ops)
	})
}
