//go:build !race

// Not built under the race detector: the race runtime makes sync.Pool
// intentionally nondeterministic and instruments allocations, so an
// allocation budget means nothing there.

package sim

import (
	"runtime/debug"
	"testing"

	"ansmet/internal/partition"
)

// simReplayArms are the replays BenchmarkSimReplay times and
// TestSimReplayAllocs counts: one full replay of a quick-scale trace set
// (the shape of one experiment cell: a sustained stream of beam-search
// queries) for a CPU design, an NDP design and the NDP design at an
// admission window of 1.
func simReplayArms() []simReplayArm {
	// 96 queries x 20 hops x 16 tasks, GIST-like 60-line vectors with early
	// termination at 10 lines — the throughput regime of Model.Stream.
	traces := mkTraces(96, 20, 16, 10, 60, 5, 4000, nil)
	arm := func(name string, cfg Config) simReplayArm {
		return simReplayArm{name, func() { Run(cfg, traces) }}
	}
	window1 := baseConfig(true, 60, partition.Hybrid, 1024)
	window1.InFlightFactor = -1
	return []simReplayArm{
		arm("CPU", baseConfig(false, 60, partition.Hybrid, 1024)),
		arm("NDP", baseConfig(true, 60, partition.Hybrid, 1024)),
		arm("NDP-window1", window1),
	}
}

type simReplayArm struct {
	name   string
	replay func()
}

// BenchmarkSimReplay: the replay is the wall-clock bottleneck of experiment
// regeneration.
func BenchmarkSimReplay(b *testing.B) {
	for _, arm := range simReplayArms() {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				arm.replay()
			}
		})
	}
}

// TestSimReplayAllocs holds a replay over warm pools to 8 allocations. The
// collector is off while it counts: a collection empties the scratch pools,
// and refilling them is not the replay's steady state.
func TestSimReplayAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, arm := range simReplayArms() {
		arm.replay() // warm the pools
		if n := testing.AllocsPerRun(3, arm.replay); n > 8 {
			t.Errorf("%s: %.1f allocs per replay, budget 8", arm.name, n)
		}
	}
}
