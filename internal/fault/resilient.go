package fault

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ansmet/internal/engine"
	"ansmet/internal/vecmath"
)

// ResilienceConfig tunes the fault-tolerant path around a fallible engine.
type ResilienceConfig struct {
	// MaxRetries is how many times a failed comparison is retried on the
	// primary engine before falling back (default 2). A retry follows its
	// failure at once: nothing here waits on the wall clock.
	MaxRetries int
	// FailureThreshold is the consecutive-failure count that opens a
	// rank's circuit breaker (default 4).
	FailureThreshold int
	// ProbeAfter is how many comparisons an open rank routes to the
	// fallback before one probe is let through to test recovery
	// (default 64). Comparisons, not wall time, keep the simulator
	// deterministic.
	ProbeAfter int
}

// WithDefaults fills zero fields with the defaults above.
func (c ResilienceConfig) WithDefaults() ResilienceConfig {
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.FailureThreshold == 0 {
		c.FailureThreshold = 4
	}
	if c.ProbeAfter == 0 {
		c.ProbeAfter = 64
	}
	return c
}

// Counters aggregates fault and fallback events across all resilient
// engines sharing them (one instance per sim.Model, updated atomically).
type Counters struct {
	Attempts        atomic.Uint64 // primary comparisons attempted
	Retries         atomic.Uint64 // failed attempts that were retried
	Failures        atomic.Uint64 // comparisons that exhausted retries
	Fallbacks       atomic.Uint64 // comparisons served by the fallback engine
	BreakerTrips    atomic.Uint64 // breakers opened
	Probes          atomic.Uint64 // half-open probes issued
	Reenables       atomic.Uint64 // breakers closed again by a probe
	PanicRecoveries atomic.Uint64 // primary panics converted to failures
}

// CounterSnapshot is a plain-value copy of Counters.
type CounterSnapshot struct {
	Attempts, Retries, Failures, Fallbacks  uint64
	BreakerTrips, Probes, Reenables, Panics uint64
}

// Snapshot copies the current counter values.
func (c *Counters) Snapshot() CounterSnapshot {
	return CounterSnapshot{
		Attempts:     c.Attempts.Load(),
		Retries:      c.Retries.Load(),
		Failures:     c.Failures.Load(),
		Fallbacks:    c.Fallbacks.Load(),
		BreakerTrips: c.BreakerTrips.Load(),
		Probes:       c.Probes.Load(),
		Reenables:    c.Reenables.Load(),
		Panics:       c.PanicRecoveries.Load(),
	}
}

// Sub returns the per-field difference s - o (event deltas over a run).
func (s CounterSnapshot) Sub(o CounterSnapshot) CounterSnapshot {
	return CounterSnapshot{
		Attempts:     s.Attempts - o.Attempts,
		Retries:      s.Retries - o.Retries,
		Failures:     s.Failures - o.Failures,
		Fallbacks:    s.Fallbacks - o.Fallbacks,
		BreakerTrips: s.BreakerTrips - o.BreakerTrips,
		Probes:       s.Probes - o.Probes,
		Reenables:    s.Reenables - o.Reenables,
		Panics:       s.Panics - o.Panics,
	}
}

// BreakerState is one circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed routes comparisons to the primary engine.
	BreakerClosed BreakerState = iota
	// BreakerOpen routes the rank's comparisons to the fallback.
	BreakerOpen
	// BreakerHalfOpen has one probe in flight on the primary.
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

type breaker struct {
	state       BreakerState
	consecFails int
	sinceOpen   int // fallback comparisons routed away since opening
}

// BreakerSet holds one circuit breaker per NDP rank, shared by every
// worker's resilient engine. All methods are safe for concurrent use.
type BreakerSet struct {
	cfg ResilienceConfig
	mu  sync.Mutex
	b   []breaker
}

// NewBreakerSet creates closed breakers for `ranks` ranks.
func NewBreakerSet(ranks int, cfg ResilienceConfig) *BreakerSet {
	if ranks < 1 {
		ranks = 1
	}
	return &BreakerSet{cfg: cfg.WithDefaults(), b: make([]breaker, ranks)}
}

// State returns rank's current breaker state.
func (s *BreakerSet) State(rank int) BreakerState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rank < 0 || rank >= len(s.b) {
		return BreakerClosed
	}
	return s.b[rank].state
}

// DegradedRanks counts ranks whose breaker is not closed.
func (s *BreakerSet) DegradedRanks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, b := range s.b {
		if b.state != BreakerClosed {
			n++
		}
	}
	return n
}

// Allow reports whether a comparison touching rank may use the primary
// engine. An open breaker admits one probe after ProbeAfter fallback
// routings (moving to half-open); otherwise the caller must use the
// fallback. probe reports whether the admitted comparison is that probe.
func (s *BreakerSet) Allow(rank int) (allowed, probe bool) {
	return s.AllowAll([]int{rank})
}

// AllowAll is Allow over every rank serving one comparison, decided
// atomically: the comparison runs on the primary only if no serving rank
// is open (or all open ranks are due for their probe, which this call then
// admits as one joint probe). Open ranks denied here advance their
// fallback-routing counts toward the next probe.
func (s *BreakerSet) AllowAll(ranks []int) (allowed, probe bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	allowed = true
	for _, r := range ranks {
		if r < 0 || r >= len(s.b) {
			continue
		}
		b := &s.b[r]
		switch b.state {
		case BreakerHalfOpen: // a probe is already in flight
			allowed = false
		case BreakerOpen:
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
		if b.state == BreakerOpen {
			b.state = BreakerHalfOpen
			probe = true
		}
	}
	return true, probe
}

// ReleaseProbe returns a half-open rank to open without recording an
// attributed failure — used when a joint probe failed because of a
// *different* rank, so this rank's probe never really ran.
func (s *BreakerSet) ReleaseProbe(rank int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rank < 0 || rank >= len(s.b) {
		return
	}
	b := &s.b[rank]
	if b.state == BreakerHalfOpen {
		b.state = BreakerOpen
		b.sinceOpen = 0
	}
}

// Success records a successful primary comparison on rank; a half-open
// probe success closes the breaker. It reports whether the rank was
// re-enabled by this call.
func (s *BreakerSet) Success(rank int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rank < 0 || rank >= len(s.b) {
		return false
	}
	b := &s.b[rank]
	reenabled := b.state == BreakerHalfOpen
	b.state = BreakerClosed
	b.consecFails = 0
	b.sinceOpen = 0
	return reenabled
}

// Failure records an exhausted-retries comparison failure on rank. It
// reports whether this failure tripped the breaker open (from closed after
// FailureThreshold consecutive failures, or re-opened from half-open).
func (s *BreakerSet) Failure(rank int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rank < 0 || rank >= len(s.b) {
		return false
	}
	b := &s.b[rank]
	switch b.state {
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.sinceOpen = 0
		return true
	case BreakerOpen:
		return false
	default:
		b.consecFails++
		if b.consecFails >= s.cfg.FailureThreshold {
			b.state = BreakerOpen
			b.sinceOpen = 0
			return true
		}
		return false
	}
}

// Resilient serves comparisons from a fallible primary engine with bounded
// retries, per-rank circuit breaking, and graceful degradation to an
// always-correct fallback engine (the CPU exact path). Search results stay
// correct under any primary failure because the fallback computes exact
// distances — a degraded rank costs latency and fetch traffic, never
// recall (DESIGN.md, "Fault model and degradation semantics").
//
// Like every engine, a Resilient serves one query at a time; workers each
// wrap their own primary but share the BreakerSet and Counters.
type Resilient struct {
	primary  engine.Fallible
	fallback engine.Engine
	// ranksOf appends the ranks serving vector id to dst. A comparison is
	// routed to the fallback when any serving rank's breaker is open.
	ranksOf  func(id uint32, dst []int) []int
	breakers *BreakerSet
	counters *Counters
	cfg      ResilienceConfig

	scratch []int
}

var _ engine.Engine = (*Resilient)(nil)

// NewResilient assembles the wrapper. fallback must be infallible (the CPU
// exact engine); ranksOf may be nil when the primary is a single-rank
// device (rank 0 is assumed). breakers and counters are shared across
// workers; counters may be nil for a private instance.
func NewResilient(primary engine.Fallible, fallback engine.Engine, ranksOf func(id uint32, dst []int) []int,
	breakers *BreakerSet, counters *Counters, cfg ResilienceConfig) *Resilient {
	if ranksOf == nil {
		ranksOf = func(id uint32, dst []int) []int { return append(dst, 0) }
	}
	if breakers == nil {
		breakers = NewBreakerSet(1, cfg)
	}
	if counters == nil {
		counters = &Counters{}
	}
	return &Resilient{
		primary: primary, fallback: fallback, ranksOf: ranksOf,
		breakers: breakers, counters: counters, cfg: cfg.WithDefaults(),
	}
}

// Counters returns the shared event counters.
func (r *Resilient) Counters() *Counters { return r.counters }

// Breakers returns the shared breaker set.
func (r *Resilient) Breakers() *BreakerSet { return r.breakers }

// StartQuery implements engine.Engine.
func (r *Resilient) StartQuery(q []float32) {
	r.primary.StartQuery(q)
	r.fallback.StartQuery(q)
}

// tryPrimary runs one primary attempt, converting panics into errors so a
// crashing hardware path can never take the serving process down.
func (r *Resilient) tryPrimary(id uint32, threshold float64) (res engine.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			r.counters.PanicRecoveries.Add(1)
			err = fmt.Errorf("fault: primary panicked: %v", p)
		}
	}()
	return r.primary.TryCompare(id, threshold)
}

// Compare implements engine.Engine: primary with retries when the serving ranks
// are healthy, fallback otherwise. The result is always trustworthy — the
// fallback computes exact distances, and accepted primary results carry
// exact distances by the ET invariant.
func (r *Resilient) Compare(id uint32, threshold float64) engine.Result {
	r.scratch = r.ranksOf(id, r.scratch[:0])
	ranks := r.scratch
	allowed, probe := r.breakers.AllowAll(ranks)
	if !allowed {
		r.counters.Fallbacks.Add(1)
		return r.fallback.Compare(id, threshold)
	}
	if probe {
		r.counters.Probes.Add(1)
	}

	var lastErr error
	for attempt := 0; attempt <= r.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			r.counters.Retries.Add(1)
		}
		r.counters.Attempts.Add(1)
		res, err := r.tryPrimary(id, threshold)
		if err == nil {
			for _, rank := range ranks {
				if r.breakers.Success(rank) {
					r.counters.Reenables.Add(1)
				}
			}
			return res
		}
		lastErr = err
	}

	// Retries exhausted: attribute the failure and degrade to the fallback.
	// With a RankError only the named rank accrues the failure; other ranks
	// of a joint probe are released back to open, their probe unresolved.
	r.counters.Failures.Add(1)
	var re *engine.RankError
	attributed := -1
	if errors.As(lastErr, &re) {
		attributed = re.Rank
	}
	for _, rank := range ranks {
		if attributed == -1 || rank == attributed {
			if r.breakers.Failure(rank) {
				r.counters.BreakerTrips.Add(1)
			}
		} else {
			r.breakers.ReleaseProbe(rank)
		}
	}
	r.counters.Fallbacks.Add(1)
	return r.fallback.Compare(id, threshold)
}

// LinesPerVector implements engine.Engine (the primary's footprint: timing-model
// bookkeeping keeps charging the configured layout).
func (r *Resilient) LinesPerVector() int { return r.primary.LinesPerVector() }

// Metric implements engine.Engine.
func (r *Resilient) Metric() vecmath.Metric { return r.primary.Metric() }
