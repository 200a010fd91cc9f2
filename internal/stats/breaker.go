package stats

import (
	"fmt"
	"sync"
)

// BreakerState is one circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed routes work to the member normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen routes the member's work away until its probe is due.
	BreakerOpen
	// BreakerHalfOpen has one probe in flight on the member.
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	if s < 0 || s > BreakerHalfOpen {
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
	return [...]string{"closed", "open", "half-open"}[s]
}

type breaker struct {
	state   BreakerState
	fails   int   // failures while closed since the last success
	reopens int   // consecutive opens without a successful close
	probeAt int64 // clock reading at which an open member admits a probe
}

// Breakers is one circuit breaker per member (a cluster shard) under one
// mutex: threshold consecutive failures open a member, an open member
// admits one probe once it is due, and the probe's verdict closes or
// re-opens it. Time is the owner's: clock reads it (wall nanoseconds for a
// shard), and a probe is due once the reading reaches the mark set when the
// member opened or was released, clock() + wait(member, reopens−1). clock
// and wait are called with the mutex held. All methods are safe for
// concurrent use; out-of-range members read as closed and are otherwise
// ignored.
type Breakers struct {
	threshold int
	clock     func() int64
	wait      func(member, reopen int) int64

	mu sync.Mutex
	b  []breaker
}

// NewBreakers creates n closed breakers.
func NewBreakers(n, threshold int, clock func() int64, wait func(member, reopen int) int64) *Breakers {
	return &Breakers{threshold: threshold, clock: clock, wait: wait, b: make([]breaker, n)}
}

func (s *Breakers) at(i int) *breaker {
	if i < 0 || i >= len(s.b) {
		return nil
	}
	return &s.b[i]
}

// States returns every member's position, indexed by member.
func (s *Breakers) States() []BreakerState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]BreakerState, len(s.b))
	for i, b := range s.b {
		out[i] = b.state
	}
	return out
}

// Allow reports whether work may be sent to member i. An open member
// admits one probe once it is due (moving to half-open); probe reports
// whether the admitted work is that probe. A half-open member admits
// nothing until its probe's verdict.
func (s *Breakers) Allow(i int) (allowed, probe bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.at(i)
	switch {
	case b == nil || b.state == BreakerClosed:
		return true, false
	case b.state == BreakerHalfOpen: // a probe is already in flight
		return false, false
	}
	if s.clock() < b.probeAt {
		return false, false
	}
	b.state = BreakerHalfOpen
	return true, true
}

// Success records healthy work on member i; a half-open probe success
// closes the breaker. It reports whether this call re-enabled the member.
func (s *Breakers) Success(i int) (reenabled bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.at(i)
	if b == nil {
		return false
	}
	reenabled = b.state == BreakerHalfOpen
	*b = breaker{}
	return reenabled
}

// Failure records a failure on member i. It reports whether this failure
// opened the breaker: from closed after threshold consecutive failures, or
// from half-open, when the probe failed. Each open advances the member's
// reopen count, which its wait may lengthen.
func (s *Breakers) Failure(i int) (tripped bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.at(i)
	if b == nil {
		return false
	}
	switch b.state {
	case BreakerOpen:
		return false
	case BreakerClosed:
		if b.fails++; b.fails < s.threshold {
			return false
		}
	}
	b.reopens++
	s.reopen(i, b)
	return true
}

// ReleaseProbe returns a half-open member to open without a verdict: its
// probe never really ran (the client left or a budget shed it). The next
// probe is scheduled on the same
// wait step, since the reopen count does not advance.
func (s *Breakers) ReleaseProbe(i int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b := s.at(i); b != nil && b.state == BreakerHalfOpen {
		s.reopen(i, b)
	}
}

// reopen moves b to open and marks when its next probe is due. Caller
// holds s.mu.
func (s *Breakers) reopen(i int, b *breaker) {
	b.state = BreakerOpen
	b.probeAt = s.clock() + s.wait(i, b.reopens-1)
}
