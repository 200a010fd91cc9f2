package engine

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseRoute(t *testing.T) {
	cases := []struct {
		in   string
		want Route
		err  bool
	}{
		{"auto", RouteAuto, false},
		{"exact", RouteExact, false},
		{"host", RouteHost, false},
		{"", 0, true}, // the serve layer never forwards an absent mode
		{"fast", 0, true},
		{"NDP", 0, true},
		{"ndp", 0, true},    // the bit-plane beam is the model's, not a served route
		{"tiered", 0, true}, // likewise the bound-then-rerank scan
	}
	for _, c := range cases {
		got, err := ParseRoute(c.in)
		if (err != nil) != c.err {
			t.Fatalf("ParseRoute(%q) err=%v, want err=%v", c.in, err, c.err)
		}
		if err == nil && got != c.want {
			t.Fatalf("ParseRoute(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	// Every route round-trips, and the error of an unknown mode names each:
	// the list the serve layer's 400 text is generated from.
	_, unknown := ParseRoute("warp")
	for r := RouteAuto; r < NumRoutes; r++ {
		back, err := ParseRoute(r.String())
		if err != nil || back != r {
			t.Fatalf("round-trip %v: %v, %v", r, back, err)
		}
		if !strings.Contains(unknown.Error(), r.String()) {
			t.Fatalf("unknown-mode error %q does not list %v", unknown, r)
		}
	}
	if Route(99).String() == "" {
		t.Fatal("out-of-range route must still stringify")
	}
}

func TestDecidePolicy(t *testing.T) {
	r := NewRouter()

	// No deadline, healthy, idle: the highest-quality path.
	if got := r.Decide(NoDeadline); got != RouteExact {
		t.Fatalf("idle no-deadline: %v", got)
	}
	// No cost estimate yet: optimistic quality even under a deadline.
	if got := r.Decide(time.Millisecond); got != RouteExact {
		t.Fatalf("no estimate: %v", got)
	}

	// With an estimate, slack gates the choice at safetyFactor x cost; the
	// beam's own cost plays no part.
	r.Observe(RouteExact, time.Millisecond)
	r.Observe(RouteHost, time.Hour)
	if got := r.Decide(10 * time.Millisecond); got != RouteExact {
		t.Fatalf("ample slack: %v", got)
	}
	if got := r.Decide(time.Millisecond); got != RouteHost {
		t.Fatalf("tight slack: %v", got)
	}
	if got := r.Decide(0); got != RouteHost {
		t.Fatalf("expired slack: %v", got)
	}

	// Load above the high-water mark sheds to the cheap path.
	for i := 0; i < loadHighWater; i++ {
		r.Begin()
	}
	if got := r.Decide(NoDeadline); got != RouteHost {
		t.Fatalf("loaded: %v", got)
	}
	for i := 0; i < loadHighWater; i++ {
		r.End()
	}
}

func TestObserveEWMA(t *testing.T) {
	r := NewRouter()
	if r.CostNs(RouteHost) != 0 {
		t.Fatal("cost before any observation")
	}
	r.Observe(RouteHost, 1000*time.Nanosecond)
	if got := r.CostNs(RouteHost); got != 1000 {
		t.Fatalf("first observation seeds directly: %d", got)
	}
	r.Observe(RouteHost, 2000*time.Nanosecond)
	if got := r.CostNs(RouteHost); got != 1200 {
		t.Fatalf("EWMA(0.2) of 1000,2000: %d", got)
	}
	// A zero-length sample is clamped to 1 ns: the estimate never returns to
	// 0, which Decide reads as "no observation".
	r.Observe(RouteExact, 0)
	if got := r.CostNs(RouteExact); got != 1 {
		t.Fatalf("zero sample: %d, want the 1 ns clamp", got)
	}
	// Invalid routes are ignored.
	r.Observe(RouteAuto, time.Second)
	r.Observe(Route(17), time.Second)
	if r.CostNs(RouteAuto) != 0 || r.CostNs(Route(17)) != 0 {
		t.Fatal("invalid routes must not record cost")
	}
}

func TestRouterSnapshotAndConcurrency(t *testing.T) {
	r := NewRouter()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Begin()
				r.Record(RouteHost)
				r.Observe(RouteHost, time.Duration(i+1)*time.Microsecond)
				r.Decide(NoDeadline)
				r.End()
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Host != 1600 || s.InFlight != 0 {
		t.Fatalf("snapshot after concurrent use: %+v", s)
	}
	if s.CostNs["host"] == 0 {
		t.Fatalf("no cost estimate surfaced: %+v", s)
	}
}
