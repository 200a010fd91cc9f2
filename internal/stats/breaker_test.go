package stats

import "testing"

// countBreakers is n breakers on the count clock a deterministic simulator
// keeps: the reading is the number of Allow calls an open member has
// received, and a member's probe is due probeAfter calls after it opened.
func countBreakers(n, threshold int, probeAfter int64) *Breakers {
	return NewBreakers(n, threshold,
		func(routed int64) int64 { return routed },
		func(int, int) int64 { return probeAfter })
}

// TestBreakerTransitions is the closed → open → half-open → closed/open
// table test over the deterministic count clock.
func TestBreakerTransitions(t *testing.T) {
	steps := []struct {
		name string
		do   func(s *Breakers) // one event
		want BreakerState
	}{
		{"fail 1", func(s *Breakers) { s.Failure(0) }, BreakerClosed},
		{"fail 2", func(s *Breakers) { s.Failure(0) }, BreakerClosed},
		{"success resets", func(s *Breakers) { s.Success(0) }, BreakerClosed},
		{"fail 1'", func(s *Breakers) { s.Failure(0) }, BreakerClosed},
		{"fail 2'", func(s *Breakers) { s.Failure(0) }, BreakerClosed},
		{"fail 3 trips", func(s *Breakers) {
			if !s.Failure(0) {
				t.Fatal("third consecutive failure should trip")
			}
		}, BreakerOpen},
		{"denied 1", func(s *Breakers) {
			if ok, _ := s.Allow(0); ok {
				t.Fatal("open breaker should deny")
			}
		}, BreakerOpen},
		{"denied 2", func(s *Breakers) { s.Allow(0) }, BreakerOpen},
		{"denied 3", func(s *Breakers) { s.Allow(0) }, BreakerOpen},
		{"probe admitted", func(s *Breakers) {
			ok, probe := s.Allow(0)
			if !ok || !probe {
				t.Fatalf("4th routing should admit a probe (ok=%v probe=%v)", ok, probe)
			}
		}, BreakerHalfOpen},
		{"no second probe", func(s *Breakers) {
			if ok, _ := s.Allow(0); ok {
				t.Fatal("half-open breaker should deny while probe in flight")
			}
		}, BreakerHalfOpen},
		{"probe fails reopens", func(s *Breakers) {
			if !s.Failure(0) {
				t.Fatal("failed probe should count as a trip")
			}
		}, BreakerOpen},
		{"wait again", func(s *Breakers) { s.Allow(0); s.Allow(0); s.Allow(0); s.Allow(0) }, BreakerHalfOpen},
		{"probe succeeds closes", func(s *Breakers) {
			if !s.Success(0) {
				t.Fatal("successful probe should report re-enable")
			}
		}, BreakerClosed},
		{"healthy allowed", func(s *Breakers) {
			ok, probe := s.Allow(0)
			if !ok || probe {
				t.Fatalf("closed breaker should allow plainly (ok=%v probe=%v)", ok, probe)
			}
		}, BreakerClosed},
	}
	s := countBreakers(2, 3, 4)
	for _, step := range steps {
		step.do(s)
		if got := s.State(0); got != step.want {
			t.Fatalf("%s: state %v, want %v", step.name, got, step.want)
		}
		if s.State(1) != BreakerClosed {
			t.Fatalf("%s: member 1 should stay closed", step.name)
		}
	}
	if s.Degraded() != 0 {
		t.Fatalf("Degraded = %d at end", s.Degraded())
	}
}
