package cluster

import (
	"testing"
	"time"

	"ansmet/internal/stats"
)

// TestProbeStepGrowsWithoutJitter: before jitter, the probe delay doubles per
// consecutive re-open from probeBase and stays at probeMax once it gets there.
func TestProbeStepGrowsWithoutJitter(t *testing.T) {
	want := []time.Duration{
		50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 800 * time.Millisecond, 1600 * time.Millisecond,
		2 * time.Second, 2 * time.Second, 2 * time.Second,
	}
	for reopen, w := range want {
		if got := probeStep(reopen); got != w {
			t.Fatalf("reopen %d: step %v, want %v", reopen, got, w)
		}
	}
	if got := probeStep(-1); got != probeBase {
		t.Fatalf("reopen -1: step %v, want %v", got, probeBase)
	}
	if got := probeStep(1 << 20); got != probeMax {
		t.Fatalf("huge reopen: step %v, want %v", got, probeMax)
	}
}

// TestProbeDelayJitterNeverExceedsMax: the jittered delay stays inside the
// ±probeJitter band around probeStep, and never above probeMax — the cap
// holds with jitter included.
func TestProbeDelayJitterNeverExceedsMax(t *testing.T) {
	rng := stats.NewRNG(42)
	for reopen := -1; reopen < 10; reopen++ {
		d := min(probeBase<<max(reopen, 0), probeMax)
		lo := time.Duration(float64(d) * (1 - probeJitter))
		hi := min(time.Duration(float64(d)*(1+probeJitter)), probeMax)
		for i := 0; i < 200; i++ {
			if got := probeDelay(reopen, rng); got < lo || got > hi {
				t.Fatalf("reopen %d: delay %v outside [%v, %v]", reopen, got, lo, hi)
			}
		}
	}
}

// TestProbeDelayJitteredAndReproducible: the jitter varies the delay (no
// lockstep re-probes), and the same seed gives the same schedule.
func TestProbeDelayJitteredAndReproducible(t *testing.T) {
	rng := stats.NewRNG(7)
	seen := map[time.Duration]bool{}
	for i := 0; i < 50; i++ {
		seen[probeDelay(0, rng)] = true
	}
	if len(seen) < 2 {
		t.Fatal("jitter produced a constant delay — no decorrelation")
	}
	a, b := stats.NewRNG(3), stats.NewRNG(3)
	for reopen := 0; reopen < 50; reopen++ {
		if da, db := probeDelay(reopen, a), probeDelay(reopen, b); da != db {
			t.Fatalf("reopen %d: same seed diverged (%v vs %v)", reopen, da, db)
		}
	}
}
