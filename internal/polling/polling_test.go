package polling

import (
	"math"
	"testing"
)

func TestConventionalSchedule(t *testing.T) {
	p := Conventional{IntervalNs: 100}.Plan(1000, BatchEstimate{})
	if p.At(0) != 1100 || p.At(1) != 1200 || p.At(4) != 1500 {
		t.Errorf("conventional polls at %v,%v,%v", p.At(0), p.At(1), p.At(4))
	}
	// Default interval.
	if at := (Conventional{}).Plan(0, BatchEstimate{}).At(0); at != 100 {
		t.Errorf("default interval first poll at %v", at)
	}
}

func TestAdaptiveSchedule(t *testing.T) {
	est := BatchEstimate{Tasks: 4, MeanTaskNs: 50, QueueAheadNs: 100}
	p := Adaptive{RetryNs: 25, Safety: 1.0}.Plan(1000, est)
	// First poll at t0 + backlog + 4*50 = 1300.
	if math.Abs(p.At(0)-1300) > 1e-9 {
		t.Errorf("adaptive first poll at %v, want 1300", p.At(0))
	}
	if math.Abs(p.At(1)-1325) > 1e-9 {
		t.Errorf("adaptive retry at %v, want 1325", p.At(1))
	}
}

func TestRetrieveAt(t *testing.T) {
	p := Conventional{IntervalNs: 100}.Plan(0, BatchEstimate{})
	at, polls := p.RetrieveAt(250, 100)
	if at != 300 || polls != 3 {
		t.Errorf("retrieve at %v with %d polls, want 300/3", at, polls)
	}
	// Result ready before first poll.
	at, polls = p.RetrieveAt(10, 100)
	if at != 100 || polls != 1 {
		t.Errorf("early result: %v/%d, want 100/1", at, polls)
	}
	// Exact boundary counts as observed.
	at, polls = p.RetrieveAt(200, 100)
	if at != 200 || polls != 2 {
		t.Errorf("boundary: %v/%d, want 200/2", at, polls)
	}
}

func TestAdaptiveBeatsConventionalOnDelay(t *testing.T) {
	// For a batch finishing at 950 ns, the conventional 100 ns policy polls
	// 10 times and retrieves at 1000; a well-estimated adaptive policy
	// polls once or twice and retrieves sooner (on average).
	done := 950.0
	cAt, cPolls := Conventional{IntervalNs: 100}.Plan(0, BatchEstimate{}).RetrieveAt(done, 1000)
	est := BatchEstimate{Tasks: 3, MeanTaskNs: 300, QueueAheadNs: 50}
	aAt, aPolls := Adaptive{RetryNs: 25, Safety: 0.95}.Plan(0, est).RetrieveAt(done, 1000)
	if aPolls >= cPolls {
		t.Errorf("adaptive used %d polls vs conventional %d", aPolls, cPolls)
	}
	if aAt > cAt+50 {
		t.Errorf("adaptive retrieved at %v vs conventional %v", aAt, cAt)
	}
}

func TestTaskEstimator(t *testing.T) {
	// Distribution: 50% one line, 30% two, 20% five.
	dist := []float64{0.5, 0.3, 0, 0, 0.2}
	e := NewTaskEstimator(dist)
	if math.Abs(e.MeanLines-(0.5+0.6+1.0)) > 1e-9 {
		t.Errorf("mean lines = %v, want 2.1", e.MeanLines)
	}
	if e.P90Lines != 5 {
		t.Errorf("p90 = %v, want 5", e.P90Lines)
	}
	be := e.Estimate(4, 10, 0, 100)
	if math.Abs(be.MeanTaskNs-21) > 1e-9 || be.Tasks != 4 || be.QueueAheadNs != 100 {
		t.Errorf("estimate = %+v", be)
	}
}

func TestTaskEstimatorP90Fallback(t *testing.T) {
	e := NewTaskEstimator([]float64{0.4, 0.4}) // mass sums to 0.8
	if e.P90Lines != 2 {
		t.Errorf("fallback p90 = %v, want distribution length", e.P90Lines)
	}
}

func TestAdaptiveBackoffLadder(t *testing.T) {
	// Past the expected window the retry pitch doubles up to the cap, so a
	// badly underestimated batch costs O(log) polls, not O(n).
	est := BatchEstimate{Tasks: 1, MeanTaskNs: 100}
	p := Adaptive{RetryNs: 10, MaxRetryNs: 80, Safety: 1.0}.Plan(0, est)
	_, polls := p.RetrieveAt(2000, 1000)
	if polls > 40 {
		t.Errorf("backoff ladder used %d polls to cover 20x underestimate", polls)
	}
	// Strictly increasing times.
	prev := p.At(0)
	for i := 1; i < 20; i++ {
		cur := p.At(i)
		if cur <= prev {
			t.Fatalf("poll times not increasing at %d: %v <= %v", i, cur, prev)
		}
		prev = cur
	}
}

func TestRetrieveAtExhaustsMaxPolls(t *testing.T) {
	p := Conventional{IntervalNs: 10}.Plan(0, BatchEstimate{})
	at, polls := p.RetrieveAt(1e12, 5)
	if polls != 5 || at != p.At(4) {
		t.Errorf("maxPolls clamp broken: %v/%d", at, polls)
	}
}
