// Package leakcheck is the goroutine-leak check of the concurrency tests:
// capture a baseline before the noisy phase, then require the goroutine count
// to settle back to (about) that baseline once the phase ends, polling with
// patience instead of sampling once — goroutine teardown is asynchronous, so
// a single instantaneous read flakes.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// Baseline samples the current goroutine count after giving in-flight
// teardown a moment to finish, so the later settle target is not inflated
// by goroutines that were already dying.
func Baseline() int {
	time.Sleep(50 * time.Millisecond)
	return runtime.NumGoroutine()
}

// SettleT polls for up to 3 s until at most 2 goroutines above base are
// alive — runtime helpers (timer goroutines, finalizers) come and go — and
// fails t on a leak.
func SettleT(t testing.TB, base int) {
	t.Helper()
	const slack = 2
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > base+slack {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d alive, baseline %d (slack %d)", runtime.NumGoroutine(), base, slack)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
