package fault

import (
	"errors"
	"fmt"
	"sync/atomic"

	"ansmet/internal/engine"
	"ansmet/internal/stats"
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

// NewBreakerSet creates closed breakers for `ranks` ranks, shared by every
// worker's resilient engine. A rank's clock is the count of comparisons
// routed away since it opened, so an open rank admits one probe after
// ProbeAfter fallback routings: no wall time, for simulator determinism.
func NewBreakerSet(ranks int, cfg ResilienceConfig) *stats.Breakers {
	cfg = cfg.WithDefaults()
	return stats.NewBreakers(max(ranks, 1), cfg.FailureThreshold,
		func(routed int64) int64 { return routed },
		func(int, int) int64 { return int64(cfg.ProbeAfter) })
}

// Resilient serves comparisons from a fallible primary engine with bounded
// retries, per-rank circuit breaking, and graceful degradation to an
// always-correct fallback engine (the CPU exact path). Search results stay
// correct under any primary failure because the fallback computes exact
// distances — a degraded rank costs latency and fetch traffic, never
// recall (DESIGN.md, "Fault model and degradation semantics").
//
// Like every engine, a Resilient serves one query at a time; workers each
// wrap their own primary but share the breakers and Counters.
type Resilient struct {
	primary  Fallible
	fallback engine.Engine
	// ranksOf appends the ranks serving vector id to dst. A comparison is
	// routed to the fallback when any serving rank's breaker is open.
	ranksOf  func(id uint32, dst []int) []int
	breakers *stats.Breakers
	counters *Counters
	cfg      ResilienceConfig

	scratch []int
}

var _ engine.Engine = (*Resilient)(nil)

// NewResilient assembles the wrapper. fallback must be infallible (the CPU
// exact engine); ranksOf may be nil when the primary is a single-rank
// device (rank 0 is assumed). breakers and counters are shared across
// workers; counters may be nil for a private instance.
func NewResilient(primary Fallible, fallback engine.Engine, ranksOf func(id uint32, dst []int) []int,
	breakers *stats.Breakers, counters *Counters, cfg ResilienceConfig) *Resilient {
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
func (r *Resilient) Breakers() *stats.Breakers { return r.breakers }

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
	var re *RankError
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
