//go:build !race

package core_test

// raceEnabled reports whether the race detector is active; the allocation
// gates skip under it (the race runtime makes sync.Pool intentionally
// nondeterministic and instruments allocations).
const raceEnabled = false
