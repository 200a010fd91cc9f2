package sim

import (
	"reflect"
	"testing"

	"ansmet/internal/dram"
	"ansmet/internal/partition"
	"ansmet/internal/polling"
	"ansmet/internal/stats"
	"ansmet/internal/trace"
)

// The golden equivalence suite: the event-scheduled Run must produce a
// report that is byte-for-byte identical to the original linear-scan
// scheduler (referenceRun, replay_reference.go) on every design point —
// same float arithmetic, same resource interleaving, same tie-breaks.
// reflect.DeepEqual over the full Report (including the dram.Stats copy and
// all per-rank slices) is the strongest equality Go offers here; any
// scheduling or accounting divergence shows up as a diff in some counter.

type goldenCase struct {
	name   string
	cfg    Config
	traces []*trace.Query
}

func goldenCases() []goldenCase {
	plain := mkTraces(24, 12, 12, 10, 60, 5, 2000, nil)
	skewed := func() []*trace.Query {
		r := stats.NewRNG(3)
		z := stats.NewZipf(r, 2.0, 1000)
		return mkTraces(32, 10, 8, 8, 8, 3, 1000, z)
	}()
	// Uneven hop shapes: batch sizes that leave some units idle, plus
	// backup re-check traffic.
	uneven := mkTraces(16, 8, 3, 7, 60, 2, 500, nil)
	for _, q := range uneven {
		tasks := q.Tasks()
		for i := range tasks {
			if tasks[i].Result.Accepted {
				tasks[i].Result.BackupLines = 2
			}
		}
	}

	adaptive := baseConfig(true, 60, partition.Hybrid, 1024)
	adaptive.Poll = polling.Adaptive{RetryNs: 25, Safety: 0.95}
	adaptive.Est = polling.NewTaskEstimator([]float64{0, 0, 0, 1})

	isolated := baseConfig(true, 60, partition.Hybrid, 1024)
	isolated.InFlightFactor = -1

	cpuIso := baseConfig(false, 60, partition.Horizontal, 0)
	cpuIso.InFlightFactor = -1

	narrow := baseConfig(true, 60, partition.Hybrid, 1024)
	narrow.InFlightFactor = 1

	replicated := baseConfig(true, 8, partition.Horizontal, 0)
	hot := make([]uint32, 20)
	for i := range hot {
		hot[i] = uint32(i)
	}
	replicated.Part.SetReplicated(hot)

	grouped := baseConfig(false, 60, partition.Horizontal, 0)
	grouped.GroupLines = []int{16, 16, 16, 12}

	smallMem := dram.DefaultConfig()
	smallMem.Channels, smallMem.DIMMsPerChannel, smallMem.RanksPerDIMM = 2, 1, 2
	smallPart := mustPartition(partition.Hybrid, smallMem.Ranks(), 60, 1024,
		smallMem.BanksPerRank(), smallMem.RowBytes)
	small := Config{
		Mem: smallMem, UseNDP: true, Host: DefaultHost(), NDP: DefaultNDP(),
		Part: smallPart, GroupLines: []int{60}, QueryLines: 2,
		Poll: polling.Conventional{IntervalNs: 100},
	}

	return []goldenCase{
		{"cpu-horizontal", baseConfig(false, 60, partition.Horizontal, 0), plain},
		{"cpu-grouped-et", grouped, uneven},
		{"cpu-isolated", cpuIso, plain},
		{"ndp-hybrid", baseConfig(true, 60, partition.Hybrid, 1024), plain},
		{"ndp-horizontal", baseConfig(true, 60, partition.Horizontal, 0), plain},
		{"ndp-vertical", baseConfig(true, 60, partition.Vertical, 0), plain},
		{"ndp-adaptive-poll", adaptive, plain},
		{"ndp-isolated", isolated, plain},
		{"ndp-window-16", narrow, plain},
		{"ndp-replicated-skew", replicated, skewed},
		{"ndp-backup-uneven", baseConfig(true, 60, partition.Hybrid, 1024), uneven},
		{"ndp-small-topology", small, plain},
	}
}

func TestRunMatchesReference(t *testing.T) {
	for _, tc := range goldenCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := Run(tc.cfg, tc.traces)
			want := referenceRun(tc.cfg, tc.traces)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("event-scheduled report diverges from reference:\n got: %+v\nwant: %+v", got, want)
			}
		})
	}
}

// TestRunPooledStateIsolated re-runs the same replay back to back (forcing
// pool reuse) and interleaves a different topology in between; the pooled
// state must not leak frontier or DRAM state across runs.
func TestRunPooledStateIsolated(t *testing.T) {
	cases := goldenCases()
	first := Run(cases[3].cfg, cases[3].traces)
	_ = Run(cases[11].cfg, cases[11].traces) // different topology through the pool
	second := Run(cases[3].cfg, cases[3].traces)
	if !reflect.DeepEqual(first, second) {
		t.Errorf("pooled state leaked between runs:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}
