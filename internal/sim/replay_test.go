package sim

import (
	"testing"

	"ansmet/internal/dram"
	"ansmet/internal/engine"
	"ansmet/internal/partition"
	"ansmet/internal/polling"
	"ansmet/internal/stats"
	"ansmet/internal/trace"
)

// mkTraces builds synthetic query traces: each query has hops of batchSize
// comparison tasks over vectors drawn round-robin (or zipf-skewed), with
// the given fetched-line count and accept rate.
func mkTraces(nQueries, hops, batch, lines, fullLines int, acceptEvery int, nVectors int, skew *stats.Zipf) []*trace.Query {
	var out []*trace.Query
	next := uint32(0)
	for q := 0; q < nQueries; q++ {
		tq := &trace.Query{}
		for h := 0; h < hops; h++ {
			tq.BeginHop(0)
			for b := 0; b < batch; b++ {
				var id uint32
				if skew != nil {
					id = uint32(skew.Next()) % uint32(nVectors)
				} else {
					id = next % uint32(nVectors)
					next++
				}
				accepted := acceptEvery > 0 && (h*batch+b)%acceptEvery == 0
				l := lines
				if accepted {
					l = fullLines
				}
				// Synthetic traces use LinesLocal == Lines (the horizontal
				// semantics); partition-specific tests scale it themselves.
				tq.AddTask(id, 1, engine.Result{Dist: 1, Accepted: accepted, Lines: l, LinesLocal: l})
			}
			tq.EndHop(2 + 2*batch)
		}
		out = append(out, tq)
	}
	return out
}

// mustPartition is partition.New for the fixed maps these tests build.
func mustPartition(scheme partition.Scheme, ranks, linesPerVector, subVectorBytes, banksPerRank, rowBytes int) *partition.Map {
	m, err := partition.New(scheme, ranks, linesPerVector, subVectorBytes, banksPerRank, rowBytes)
	if err != nil {
		panic(err)
	}
	return m
}

func baseConfig(useNDP bool, fullLines int, scheme partition.Scheme, sub int) Config {
	mem := dram.DefaultConfig()
	part := mustPartition(scheme, mem.Ranks(), fullLines, sub, mem.BanksPerRank(), mem.RowBytes)
	return Config{
		Mem: mem, UseNDP: useNDP,
		Host: DefaultHost(), NDP: DefaultNDP(),
		Part:       part,
		GroupLines: []int{fullLines},
		QueryLines: 2,
		Poll:       polling.Conventional{IntervalNs: 100},
	}
}

func TestCPUBasicAccounting(t *testing.T) {
	traces := mkTraces(8, 10, 16, 8, 8, 4, 1000, nil)
	rep := Run(baseConfig(false, 8, partition.Horizontal, 0), traces)
	if len(rep.QueryLatencyNs) != 8 {
		t.Fatalf("latencies for %d queries", len(rep.QueryLatencyNs))
	}
	if rep.MakespanNs <= 0 || rep.AvgLatencyNs() <= 0 {
		t.Fatal("degenerate timing")
	}
	if rep.DistCompNs <= 0 || rep.TraversalNs <= 0 {
		t.Fatal("missing breakdown components")
	}
	if rep.OffloadNs != 0 || rep.CollectNs != 0 {
		t.Error("CPU design should have no offload/collect time")
	}
	wantLines := uint64(8 * 10 * 16 * 8)
	if got := rep.EffectualLines + rep.IneffectualLines; got != wantLines {
		t.Errorf("counted %d lines, want %d", got, wantLines)
	}
	if rep.Mem.HostBytes == 0 || rep.Mem.NDPBytes != 0 {
		t.Error("CPU design must use only the host path")
	}
	if rep.QPS() <= 0 {
		t.Error("zero QPS")
	}
}

func TestNDPBasicAccounting(t *testing.T) {
	traces := mkTraces(8, 10, 16, 8, 8, 4, 1000, nil)
	rep := Run(baseConfig(true, 8, partition.Horizontal, 0), traces)
	if rep.OffloadNs <= 0 || rep.CollectNs < 0 || rep.PollCount == 0 {
		t.Error("NDP design must pay offload and polling")
	}
	if rep.Mem.NDPBytes == 0 {
		t.Error("NDP fetches must use rank-internal buses")
	}
	if rep.NDPBusyNs <= 0 {
		t.Error("NDP units never busy")
	}
}

func TestNDPFasterThanCPUWhenBandwidthBound(t *testing.T) {
	// Heavy fetch workload (GIST-like: 60 lines/vector): NDP's 8x bandwidth
	// must deliver a large throughput win.
	traces := mkTraces(32, 20, 16, 60, 60, 4, 4000, nil)
	cpu := Run(baseConfig(false, 60, partition.Hybrid, 1024), traces)
	ndp := Run(baseConfig(true, 60, partition.Hybrid, 1024), traces)
	speedup := ndp.QPS() / cpu.QPS()
	if speedup < 3 {
		t.Errorf("NDP speedup %.2fx, want >= 3x (cpu %.0f qps, ndp %.0f qps)",
			speedup, cpu.QPS(), ndp.QPS())
	}
	t.Logf("NDP speedup %.2fx", speedup)
}

func TestETReducesTimeAndTraffic(t *testing.T) {
	// Same workload, rejected tasks fetch 10 lines instead of 60.
	full := mkTraces(16, 20, 16, 60, 60, 5, 4000, nil)
	et := mkTraces(16, 20, 16, 10, 60, 5, 4000, nil)
	cfg := baseConfig(true, 60, partition.Horizontal, 0)
	repFull := Run(cfg, full)
	repET := Run(baseConfig(true, 60, partition.Horizontal, 0), et)
	if repET.QPS() <= repFull.QPS() {
		t.Errorf("ET did not improve QPS: %.0f vs %.0f", repET.QPS(), repFull.QPS())
	}
	if repET.Mem.NDPBytes >= repFull.Mem.NDPBytes {
		t.Error("ET did not reduce traffic")
	}
	if repET.FetchUtilization() <= repFull.FetchUtilization() {
		t.Errorf("ET did not improve fetch utilization: %v vs %v",
			repET.FetchUtilization(), repFull.FetchUtilization())
	}
}

func TestAdaptivePollingReducesCollect(t *testing.T) {
	// Short tasks (4 lines) finish well inside the conventional 100 ns
	// interval, so the fixed policy always overshoots; the adaptive policy
	// aims at the estimated completion.
	traces := mkTraces(16, 20, 16, 4, 4, 4, 2000, nil)
	conv := baseConfig(true, 4, partition.Horizontal, 0)
	conv.Poll = polling.Conventional{IntervalNs: 100}
	ad := baseConfig(true, 4, partition.Horizontal, 0)
	ad.Poll = polling.Adaptive{RetryNs: 25, Safety: 0.95}
	ad.Est = polling.NewTaskEstimator([]float64{0, 0, 0, 1})
	repConv := Run(conv, traces)
	repAd := Run(ad, traces)
	if repAd.CollectNs >= repConv.CollectNs {
		t.Errorf("adaptive collect %.0f >= conventional %.0f", repAd.CollectNs, repConv.CollectNs)
	}
	if repAd.PollCount > 2*repConv.PollCount {
		t.Errorf("adaptive polls %d far exceed conventional %d", repAd.PollCount, repConv.PollCount)
	}
}

func TestVerticalInflatesETTraffic(t *testing.T) {
	// Early-terminated tasks under vertical partitioning fetch more total
	// lines than under horizontal: local termination fires later (the
	// functional engine reports a larger LinesLocal), so each of the R
	// ranks fetches ~LinesLocal/R lines and the total exceeds the
	// sequential count.
	mk := func(linesLocal int) []*trace.Query {
		traces := mkTraces(8, 10, 8, 5, 60, 0, 1000, nil)
		for _, q := range traces {
			tasks := q.Tasks()
			for ti := range tasks {
				tasks[ti].Result.LinesLocal = linesLocal
			}
		}
		return traces
	}
	h := Run(baseConfig(true, 60, partition.Horizontal, 0), mk(5))
	v := Run(baseConfig(true, 60, partition.Vertical, 0), mk(30))
	if v.Mem.NDPBytes <= h.Mem.NDPBytes {
		t.Errorf("vertical traffic %d <= horizontal %d", v.Mem.NDPBytes, h.Mem.NDPBytes)
	}
}

func TestReplicationReducesImbalance(t *testing.T) {
	// Zipf-skewed vector popularity: replicating the hot vectors must cut
	// the max/mean rank-load ratio (§5.3).
	mk := func() []*trace.Query {
		r := stats.NewRNG(3)
		z := stats.NewZipf(r, 2.0, 1000)
		return mkTraces(64, 10, 8, 8, 8, 0, 1000, z)
	}
	base := baseConfig(true, 8, partition.Horizontal, 0)
	repBase := Run(base, mk())

	repl := baseConfig(true, 8, partition.Horizontal, 0)
	hot := make([]uint32, 20)
	for i := range hot {
		hot[i] = uint32(i) // zipf heads are the low ids
	}
	repl.Part.SetReplicated(hot)
	repRepl := Run(repl, mk())

	if repRepl.ImbalanceRatio() >= repBase.ImbalanceRatio() {
		t.Errorf("replication did not reduce imbalance: %.2f vs %.2f",
			repRepl.ImbalanceRatio(), repBase.ImbalanceRatio())
	}
	t.Logf("imbalance %.2f -> %.2f", repBase.ImbalanceRatio(), repRepl.ImbalanceRatio())
}

func TestCPUGroupSerializationCost(t *testing.T) {
	// The same line count split into many groups (ET decision points) must
	// not be faster than a single pipelined group on the CPU.
	traces := mkTraces(8, 10, 8, 16, 16, 2, 1000, nil)
	one := baseConfig(false, 16, partition.Horizontal, 0)
	one.GroupLines = []int{16}
	many := baseConfig(false, 16, partition.Horizontal, 0)
	many.GroupLines = []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	repOne := Run(one, traces)
	repMany := Run(many, traces)
	// Group-major interleaving introduces small scheduling noise, so allow
	// a few percent; serialization must never be substantially faster.
	if repMany.AvgLatencyNs() < repOne.AvgLatencyNs()*0.9 {
		t.Errorf("serialized groups substantially faster than pipelined: %v < %v",
			repMany.AvgLatencyNs(), repOne.AvgLatencyNs())
	}
}

func TestDeterminism(t *testing.T) {
	traces := mkTraces(8, 5, 8, 8, 8, 3, 500, nil)
	a := Run(baseConfig(true, 8, partition.Hybrid, 256), traces)
	b := Run(baseConfig(true, 8, partition.Hybrid, 256), traces)
	if a.MakespanNs != b.MakespanNs || a.PollCount != b.PollCount {
		t.Error("replay is not deterministic")
	}
}

func TestMissingPartPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil Part did not panic")
		}
	}()
	Run(Config{Mem: dram.DefaultConfig()}, nil)
}

func TestEmptyHopsAdvanceTime(t *testing.T) {
	tq := &trace.Query{}
	for range 2 {
		tq.BeginHop(0)
		tq.EndHop(100)
	}
	rep := Run(baseConfig(true, 8, partition.Horizontal, 0), []*trace.Query{tq})
	if rep.TraversalNs <= 0 {
		t.Error("task-free hops must still cost traversal time")
	}
}

func TestIsolatedLatencyMode(t *testing.T) {
	// InFlightFactor < 0 runs queries one at a time: latencies must be
	// lower (no contention) and the makespan equals the latency sum.
	traces := mkTraces(8, 10, 16, 8, 8, 4, 1000, nil)
	shared := baseConfig(true, 8, partition.Horizontal, 0)
	repShared := Run(shared, traces)
	iso := baseConfig(true, 8, partition.Horizontal, 0)
	iso.InFlightFactor = -1
	repIso := Run(iso, traces)
	if repIso.AvgLatencyNs() > repShared.AvgLatencyNs() {
		t.Errorf("isolated latency %v above contended %v",
			repIso.AvgLatencyNs(), repShared.AvgLatencyNs())
	}
	sum := 0.0
	for _, l := range repIso.QueryLatencyNs {
		sum += l
	}
	if repIso.MakespanNs < sum*0.99 {
		t.Errorf("isolated makespan %v below latency sum %v", repIso.MakespanNs, sum)
	}
}

func TestRefreshSlowsReplay(t *testing.T) {
	traces := mkTraces(16, 20, 16, 60, 60, 4, 4000, nil)
	on := baseConfig(true, 60, partition.Horizontal, 0)
	off := baseConfig(true, 60, partition.Horizontal, 0)
	off.Mem.Timing.TREFI = 0
	repOn := Run(on, traces)
	repOff := Run(off, traces)
	if repOn.Mem.Refreshes == 0 {
		t.Skip("workload too short to hit a refresh window")
	}
	if repOn.MakespanNs < repOff.MakespanNs {
		t.Errorf("refresh made the replay faster: %v vs %v", repOn.MakespanNs, repOff.MakespanNs)
	}
}
