package fault_test

// The resilient wrapper over the Fallible contract internal/engine declares:
// a scripted Fallible whose failures carry (or do not carry) a RankError, and
// the breakers that attribution drives.

import (
	"errors"
	"math"
	"testing"

	"ansmet/internal/engine"
	"ansmet/internal/fault"
	"ansmet/internal/stats"
	"ansmet/internal/vecmath"
)

// flakyEngine is a scriptable Fallible for testing: fails[i] errors the
// i-th TryCompare (nil = success), then the script wraps around.
type flakyEngine struct {
	inner engine.Engine
	fails []error
	calls int
	panic bool
}

func (f *flakyEngine) StartQuery(q []float32) { f.inner.StartQuery(q) }

func (f *flakyEngine) TryCompare(id uint32, threshold float64) (engine.Result, error) {
	i := f.calls
	f.calls++
	if f.panic {
		panic("flaky engine exploded")
	}
	if len(f.fails) > 0 {
		if err := f.fails[i%len(f.fails)]; err != nil {
			return engine.Result{}, err
		}
	}
	return f.inner.Compare(id, threshold), nil
}

func (f *flakyEngine) LinesPerVector() int    { return f.inner.LinesPerVector() }
func (f *flakyEngine) Metric() vecmath.Metric { return f.inner.Metric() }

func testVectors() [][]float32 {
	vs := make([][]float32, 16)
	for i := range vs {
		vs[i] = []float32{float32(i), float32(i * i % 7), 1}
	}
	return vs
}

func newTestResilient(fails []error, cfg fault.ResilienceConfig) (*fault.Resilient, *flakyEngine) {
	vs := testVectors()
	primary := &flakyEngine{inner: engine.NewExact(vs, vecmath.L2, vecmath.Float32), fails: fails}
	r := fault.NewResilient(primary, engine.NewExact(vs, vecmath.L2, vecmath.Float32), nil, nil, nil, cfg)
	return r, primary
}

// TestResilientMatchesFallbackExactly: under any failure pattern the
// resilient engine's results are byte-identical to the plain exact engine.
func TestResilientMatchesFallbackExactly(t *testing.T) {
	vs := testVectors()
	ref := engine.NewExact(vs, vecmath.L2, vecmath.Float32)
	patterns := [][]error{
		nil,
		{errors.New("transient")},
		{errors.New("a"), nil, nil},
		{&fault.RankError{Rank: 0, Err: errors.New("down")}},
	}
	q := []float32{2, 3, 1}
	for pi, fails := range patterns {
		r, _ := newTestResilient(fails, fault.ResilienceConfig{MaxRetries: 1, FailureThreshold: 2, ProbeAfter: 3})
		r.StartQuery(q)
		ref.StartQuery(q)
		for id := uint32(0); id < uint32(len(vs)); id++ {
			got := r.Compare(id, math.Inf(1))
			want := ref.Compare(id, math.Inf(1))
			if got.Dist != want.Dist || got.Accepted != want.Accepted {
				t.Fatalf("pattern %d id %d: got %+v, want %+v", pi, id, got, want)
			}
		}
	}
}

// TestResilientRetrySucceeds: a transient failure is absorbed by a retry
// without touching the fallback.
func TestResilientRetrySucceeds(t *testing.T) {
	r, _ := newTestResilient([]error{errors.New("blip"), nil}, fault.ResilienceConfig{MaxRetries: 2})
	r.StartQuery([]float32{1, 0, 0})
	r.Compare(3, math.Inf(1))
	c := r.Counters().Snapshot()
	if c.Retries != 1 || c.Fallbacks != 0 || c.Failures != 0 {
		t.Fatalf("counters %+v: want 1 retry, no fallback", c)
	}
}

// TestResilientPanicRecovered: a panicking primary is converted to a
// failure and served by the fallback; the process survives.
func TestResilientPanicRecovered(t *testing.T) {
	r, primary := newTestResilient(nil, fault.ResilienceConfig{MaxRetries: 1})
	primary.panic = true
	r.StartQuery([]float32{1, 0, 0})
	res := r.Compare(2, math.Inf(1))
	if !res.Accepted {
		t.Fatal("fallback result not accepted")
	}
	c := r.Counters().Snapshot()
	if c.Panics != 2 || c.Fallbacks != 1 {
		t.Fatalf("counters %+v: want 2 panic recoveries (attempt+retry), 1 fallback", c)
	}
}

// TestBreakerTransitions is the closed → open → half-open → closed/open
// table test over the deterministic comparison-count clock.
func TestBreakerTransitions(t *testing.T) {
	cfg := fault.ResilienceConfig{FailureThreshold: 3, ProbeAfter: 4}
	steps := []struct {
		name string
		do   func(s *stats.Breakers) // one event
		want stats.BreakerState
	}{
		{"fail 1", func(s *stats.Breakers) { s.Failure(0) }, stats.BreakerClosed},
		{"fail 2", func(s *stats.Breakers) { s.Failure(0) }, stats.BreakerClosed},
		{"success resets", func(s *stats.Breakers) { s.Success(0) }, stats.BreakerClosed},
		{"fail 1'", func(s *stats.Breakers) { s.Failure(0) }, stats.BreakerClosed},
		{"fail 2'", func(s *stats.Breakers) { s.Failure(0) }, stats.BreakerClosed},
		{"fail 3 trips", func(s *stats.Breakers) {
			if !s.Failure(0) {
				t.Fatal("third consecutive failure should trip")
			}
		}, stats.BreakerOpen},
		{"denied 1", func(s *stats.Breakers) {
			if ok, _ := s.Allow(0); ok {
				t.Fatal("open breaker should deny")
			}
		}, stats.BreakerOpen},
		{"denied 2", func(s *stats.Breakers) { s.Allow(0) }, stats.BreakerOpen},
		{"denied 3", func(s *stats.Breakers) { s.Allow(0) }, stats.BreakerOpen},
		{"probe admitted", func(s *stats.Breakers) {
			ok, probe := s.Allow(0)
			if !ok || !probe {
				t.Fatalf("4th routing should admit a probe (ok=%v probe=%v)", ok, probe)
			}
		}, stats.BreakerHalfOpen},
		{"no second probe", func(s *stats.Breakers) {
			if ok, _ := s.Allow(0); ok {
				t.Fatal("half-open breaker should deny while probe in flight")
			}
		}, stats.BreakerHalfOpen},
		{"probe fails reopens", func(s *stats.Breakers) {
			if !s.Failure(0) {
				t.Fatal("failed probe should count as a trip")
			}
		}, stats.BreakerOpen},
		{"wait again", func(s *stats.Breakers) { s.Allow(0); s.Allow(0); s.Allow(0); s.Allow(0) }, stats.BreakerHalfOpen},
		{"probe succeeds closes", func(s *stats.Breakers) {
			if !s.Success(0) {
				t.Fatal("successful probe should report re-enable")
			}
		}, stats.BreakerClosed},
		{"healthy allowed", func(s *stats.Breakers) {
			ok, probe := s.Allow(0)
			if !ok || probe {
				t.Fatalf("closed breaker should allow plainly (ok=%v probe=%v)", ok, probe)
			}
		}, stats.BreakerClosed},
	}
	s := fault.NewBreakerSet(2, cfg)
	for _, step := range steps {
		step.do(s)
		if got := s.State(0); got != step.want {
			t.Fatalf("%s: state %v, want %v", step.name, got, step.want)
		}
		if s.State(1) != stats.BreakerClosed {
			t.Fatalf("%s: rank 1 should stay closed", step.name)
		}
	}
	if s.Degraded() != 0 {
		t.Fatalf("DegradedRanks = %d at end", s.Degraded())
	}
}

// TestBreakerJointProbeRelease: when a joint probe across two open ranks
// fails because of one rank, the other is released back to open (not left
// half-open forever) and can probe again later.
func TestBreakerJointProbeRelease(t *testing.T) {
	cfg := fault.ResilienceConfig{FailureThreshold: 1, ProbeAfter: 2}
	s := fault.NewBreakerSet(2, cfg)
	s.Failure(0)
	s.Failure(1)
	if s.State(0) != stats.BreakerOpen || s.State(1) != stats.BreakerOpen {
		t.Fatal("both ranks should be open")
	}
	ranks := []int{0, 1}
	s.AllowAll(ranks) // sinceOpen 1
	ok, probe := s.AllowAll(ranks)
	if !ok || !probe {
		t.Fatalf("joint probe should be admitted (ok=%v probe=%v)", ok, probe)
	}
	// The probe failed on rank 1 only.
	s.Failure(1)
	s.ReleaseProbe(0)
	if s.State(0) != stats.BreakerOpen {
		t.Fatalf("rank 0 should be released to open, is %v", s.State(0))
	}
	// Rank 0 alone can probe again after its window.
	s.AllowAll([]int{0})
	if ok, probe := s.AllowAll([]int{0}); !ok || !probe {
		t.Fatalf("rank 0 re-probe denied (ok=%v probe=%v)", ok, probe)
	}
}

// TestResilientDegradesToFallback: persistent rank failure trips the
// breaker; subsequent comparisons route straight to the fallback with no
// primary attempts, then a probe re-enables the recovered rank.
func TestResilientDegradesToFallback(t *testing.T) {
	vs := testVectors()
	down := &fault.RankError{Rank: 0, Err: errors.New("rank dead")}
	primary := &flakyEngine{inner: engine.NewExact(vs, vecmath.L2, vecmath.Float32), fails: []error{down}}
	cfg := fault.ResilienceConfig{MaxRetries: 1, FailureThreshold: 2, ProbeAfter: 3}
	r := fault.NewResilient(primary, engine.NewExact(vs, vecmath.L2, vecmath.Float32), nil, nil, nil, cfg)
	r.StartQuery([]float32{1, 2, 3})

	// Two failing comparisons (2 attempts each) trip the breaker.
	r.Compare(1, math.Inf(1))
	r.Compare(2, math.Inf(1))
	if got := r.Breakers().State(0); got != stats.BreakerOpen {
		t.Fatalf("breaker %v after threshold failures, want open", got)
	}
	attempts := primary.calls
	// While open, comparisons 1..ProbeAfter-1 never touch the primary.
	r.Compare(3, math.Inf(1))
	r.Compare(4, math.Inf(1))
	if primary.calls != attempts {
		t.Fatalf("open breaker let %d comparisons through", primary.calls-attempts)
	}
	// The rank recovers; the next comparison is the admitted probe.
	primary.fails = nil
	r.Compare(5, math.Inf(1))
	if got := r.Breakers().State(0); got != stats.BreakerClosed {
		t.Fatalf("breaker %v after successful probe, want closed", got)
	}
	c := r.Counters().Snapshot()
	if c.BreakerTrips != 1 || c.Probes != 1 || c.Reenables != 1 {
		t.Fatalf("counters %+v: want 1 trip, 1 probe, 1 reenable", c)
	}
	if c.Fallbacks != 4 {
		t.Fatalf("fallbacks = %d, want 4 (2 failed + 2 routed)", c.Fallbacks)
	}
}
