package fault_test

import (
	"math"
	"testing"

	"ansmet/internal/bitplane"
	"ansmet/internal/core"
	"ansmet/internal/dataset"
	"ansmet/internal/engine"
	"ansmet/internal/fault"
	"ansmet/internal/hnsw"
	"ansmet/internal/ndp"
	"ansmet/internal/prefixelim"
	"ansmet/internal/sim"
	"ansmet/internal/stats"
)

func TestInjectorDeterminism(t *testing.T) {
	sched := &fault.Schedule{Seed: 42, Rules: []fault.Rule{
		{Kind: fault.CorruptPayload, Rank: -1, Op: -1, Prob: 0.3},
		{Kind: fault.DropPoll, Rank: 1, Prob: 0.5, After: 10, Count: 5},
	}}
	run := func() ([]fault.RuleStats, []bool) {
		inj := fault.NewInjector(sched)
		var fired []bool
		for i := 0; i < 200; i++ {
			_, ok := inj.Payload(i%4, int(ndp.OpPoll), [64]byte{})
			fired = append(fired, ok)
			fired = append(fired, inj.DropPoll(1))
		}
		return inj.Stats(), fired
	}
	s1, f1 := run()
	s2, f2 := run()
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("decision %d differs between identical runs", i)
		}
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("rule %d stats differ: %+v vs %+v", i, s1[i], s2[i])
		}
	}
	if s1[1].Injections > 5 {
		t.Fatalf("rule 1 injected %d times, Count=5", s1[1].Injections)
	}
}

func TestRuleSemantics(t *testing.T) {
	inj := fault.NewInjector(&fault.Schedule{Rules: []fault.Rule{
		{Kind: fault.RankCrash, Rank: 2, After: 3},
		{Kind: fault.DelayPoll, Rank: 0, After: 1, Count: 2}, // Prob 0 = always
	}})
	// fault.RankCrash honors After, then is permanent.
	for i := 0; i < 3; i++ {
		if inj.Crashed(2) {
			t.Fatalf("rank 2 crashed at check %d, After=3", i)
		}
	}
	for i := 0; i < 5; i++ {
		if !inj.Crashed(2) {
			t.Fatal("rank 2 should stay crashed")
		}
	}
	if inj.Crashed(1) {
		t.Fatal("rank 1 should never crash")
	}
	// fault.DelayPoll: skip 1, inject 2, then exhausted.
	got := []bool{inj.DelayPoll(0), inj.DelayPoll(0), inj.DelayPoll(0), inj.DelayPoll(0)}
	want := []bool{false, true, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fault.DelayPoll sequence %v, want %v", got, want)
		}
	}
	// A nil injector is inert.
	var none *fault.Injector
	if none.Crashed(0) || none.DropPoll(0) {
		t.Fatal("nil injector injected")
	}
	if _, ok := none.Payload(0, -1, [64]byte{}); ok {
		t.Fatal("nil injector corrupted a payload")
	}
}

func TestPayloadCorruptionFlipsRequestedBits(t *testing.T) {
	inj := fault.NewInjector(&fault.Schedule{Seed: 7, Rules: []fault.Rule{
		{Kind: fault.CorruptPayload, Rank: -1, Op: -1, Bits: 3},
	}})
	var clean [64]byte
	out, ok := inj.Payload(0, 0, clean)
	if !ok {
		t.Fatal("always-rule did not fire")
	}
	diff := 0
	for i := range out {
		for b := 0; b < 8; b++ {
			if (out[i]^clean[i])&(1<<b) != 0 {
				diff++
			}
		}
	}
	if diff == 0 || diff > 3 {
		t.Fatalf("%d bits flipped, want 1..3", diff)
	}
}

// protoRig assembles the protocol-level serving stack: a clean reference
// adapter and a resilient adapter whose device is wrapped in fault
// injection, both over the same rank slab.
type protoRig struct {
	ref       engine.Engine
	resilient *fault.Resilient
	queries   [][]float32
	index     *hnsw.Index
	ds        *dataset.Dataset
}

func newProtoRig(t *testing.T, sched *fault.Schedule, res fault.ResilienceConfig) *protoRig {
	t.Helper()
	p := dataset.ProfileByName("SIFT")
	ds := dataset.Generate(p, 400, 8, 31)
	ix, err := hnsw.Build(ds.Rows(), p.Metric, hnsw.Config{M: 8, MaxDegree: 16, EfConstruction: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bsched := bitplane.UniformSchedule(p.Elem, 0, 4)
	st, err := core.BuildStore(ds.Rows(), bsched, prefixelim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	l := st.Layout
	slab := make([]byte, len(ds.Vectors)*l.VectorBytes())
	var codes []uint32
	for i, v := range ds.Vectors {
		codes = p.Elem.EncodeVector(v, codes[:0])
		l.Transform(codes, slab[i*l.VectorBytes():(i+1)*l.VectorBytes()])
	}
	cfg := ndp.Config{Elem: p.Elem, Dim: uint16(p.Dim), Metric: p.Metric, Nc: 4, Tc: 2, Nf: 4}

	refUnit := ndp.NewUnit(ndp.SliceRank{Bytes: slab, VectorBytes: l.VectorBytes()})
	ref, err := ndp.NewHostAdapter(refUnit, cfg)
	if err != nil {
		t.Fatal(err)
	}

	inj := fault.NewInjector(sched)
	rank := ndp.RankData(ndp.SliceRank{Bytes: slab, VectorBytes: l.VectorBytes()})
	rank = fault.NewFaultyRank(rank, inj, 0)
	dev := fault.NewFaultyDevice(ndp.NewUnit(rank), inj, 0)
	// Configure over the faulty link can itself fail; retry like a host
	// controller would.
	var hw *ndp.HostAdapter
	for attempt := 0; ; attempt++ {
		hw, err = ndp.NewHostAdapter(dev, cfg)
		if err == nil {
			break
		}
		if attempt > 100 {
			t.Fatalf("configure never succeeded: %v", err)
		}
	}
	fb := engine.NewExact(ds.Vectors, p.Metric, p.Elem)
	resEng := fault.NewResilient(hw, fb, nil, nil, nil, res)
	return &protoRig{ref: ref, resilient: resEng, queries: ds.Queries, index: ix, ds: ds}
}

// sameNeighbors asserts identical result IDs in identical order, with
// distances equal at fp32 register precision: the NDP poll response carries
// fp32 distances while the CPU fallback computes fp64, so a comparison
// served by the fallback reports a few more correct digits of the same
// distance. (TestSystemLevelByteIdentical asserts full bitwise identity
// where both paths are fp64.)
func sameNeighbors(t *testing.T, qi int, got, want []hnsw.Neighbor, context string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("q%d: %d results, want %d (%s)", qi, len(got), len(want), context)
	}
	for j := range got {
		if got[j].ID != want[j].ID ||
			math.Abs(got[j].Dist-want[j].Dist) > 1e-4*math.Max(1, math.Abs(want[j].Dist)) {
			t.Fatalf("q%d result %d: %+v != %+v (%s)", qi, j, got[j], want[j], context)
		}
	}
}

// TestChaosRecoverableByteIdentical is chaos invariant 1: under recoverable
// faults (payload corruption, dropped and delayed polls) every search
// returns the same answers as the fault-free run — detection plus
// retry/fallback-to-exact never changes a result.
func TestChaosRecoverableByteIdentical(t *testing.T) {
	sched := &fault.Schedule{Seed: 99, Rules: []fault.Rule{
		{Kind: fault.CorruptPayload, Rank: -1, Op: -1, Prob: 0.15, Bits: 2},
		{Kind: fault.DropPoll, Rank: -1, Prob: 0.1},
		{Kind: fault.DelayPoll, Rank: -1, Prob: 0.1},
	}}
	rig := newProtoRig(t, sched, fault.ResilienceConfig{MaxRetries: 3, FailureThreshold: 8, ProbeAfter: 16})
	for qi, q := range rig.queries {
		want := rig.index.SearchFilteredInto(q, 10, 50, 1, nil, rig.ref, nil, nil)
		got := rig.index.SearchFilteredInto(q, 10, 50, 1, nil, rig.resilient, nil, nil)
		sameNeighbors(t, qi, got, want, "recoverable faults")
	}
	c := rig.resilient.Counters().Snapshot()
	if c.Retries == 0 {
		t.Fatal("schedule injected no faults — test is vacuous")
	}
}

// TestChaosRankCrashDegrades is chaos invariant 2 for detectable hard
// faults: a rank that crashes mid-run never panics the search path, the
// breaker opens, and results stay byte-identical because comparisons
// degrade to the CPU exact engine.
func TestChaosRankCrashDegrades(t *testing.T) {
	sched := &fault.Schedule{Seed: 5, Rules: []fault.Rule{
		{Kind: fault.RankCrash, Rank: 0, After: 500},
	}}
	rig := newProtoRig(t, sched, fault.ResilienceConfig{MaxRetries: 1, FailureThreshold: 3, ProbeAfter: 64})
	for qi, q := range rig.queries {
		want := rig.index.SearchFilteredInto(q, 10, 50, 1, nil, rig.ref, nil, nil)
		got := rig.index.SearchFilteredInto(q, 10, 50, 1, nil, rig.resilient, nil, nil)
		sameNeighbors(t, qi, got, want, "rank crash")
	}
	c := rig.resilient.Counters().Snapshot()
	if c.BreakerTrips == 0 || c.Fallbacks == 0 {
		t.Fatalf("crash never degraded the rank: %+v", c)
	}
	if rig.resilient.Breakers().State(0) != stats.BreakerOpen {
		t.Fatalf("breaker %v, want open", rig.resilient.Breakers().State(0))
	}
}

// TestChaosSilentCorruptionRecallFloor is chaos invariant 2 for silent
// faults: stored-line bit flips can evade detection (a flipped line can
// still yield monotone bounds), so byte-identical results are not
// guaranteed — but the search must never panic, always return full result
// sets, and keep recall above the CPU-fallback floor.
func TestChaosSilentCorruptionRecallFloor(t *testing.T) {
	sched := &fault.Schedule{Seed: 11, Rules: []fault.Rule{
		{Kind: fault.CorruptLine, Rank: -1, Prob: 0.02, Bits: 1},
	}}
	rig := newProtoRig(t, sched, fault.ResilienceConfig{MaxRetries: 1, FailureThreshold: 1 << 30, ProbeAfter: 16})
	truths := rig.ds.GroundTruth(10)
	var recallSum float64
	for qi, q := range rig.queries {
		got := rig.index.SearchFilteredInto(q, 10, 50, 1, nil, rig.resilient, nil, nil)
		if len(got) != 10 {
			t.Fatalf("degraded search returned %d results, want 10", len(got))
		}
		hits := 0
		for _, n := range got {
			for _, id := range truths[qi] {
				if n.ID == id {
					hits++
					break
				}
			}
		}
		recallSum += float64(hits) / 10
	}
	recall := recallSum / float64(len(rig.queries))
	if recall < 0.6 {
		t.Fatalf("recall %.3f under silent corruption, below the 0.6 floor", recall)
	}
	t.Logf("recall under silent line corruption: %.3f", recall)
}

// TestSystemLevelByteIdentical runs whole-model query batches (sim.Model over
// a core.System) with a fault schedule covering every recoverable class plus
// a mid-run rank crash, and asserts bitwise-identical search results to the
// fault-free model: here both the NDP software model and the CPU fallback
// compute fp64 distances, and accepted early-termination distances are
// exact, so degradation provably cannot change a single bit of any result.
func TestSystemLevelByteIdentical(t *testing.T) {
	p := dataset.ProfileByName("DEEP")
	ds := dataset.Generate(p, 600, 10, 77)
	ix, err := hnsw.Build(ds.Rows(), p.Metric, hnsw.Config{M: 8, MaxDegree: 16, EfConstruction: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(ds.Rows(), p.Metric, ix, core.DefaultSystemConfig(core.NDPET))
	if err != nil {
		t.Fatal(err)
	}
	model := func(cfg sim.Config) *sim.Model {
		m, err := sim.NewModel(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	clean := model(sim.DefaultConfig())
	inject := func(m *sim.Model) *sim.Model {
		return m.InjectFaults(&fault.Schedule{Seed: 13, Rules: []fault.Rule{
			{Kind: fault.CorruptPayload, Rank: -1, Op: -1, Prob: 0.1},
			{Kind: fault.DropPoll, Rank: -1, Prob: 0.05},
			// Rank 0 sees fewer than 200 health checks over the batch: the
			// 40th falls mid-run.
			{Kind: fault.RankCrash, Rank: 0, After: 40},
		}}, fault.ResilienceConfig{MaxRetries: 1, FailureThreshold: 4, ProbeAfter: 32})
	}
	want := clean.RunHNSW(ds.Queries, 10, 50)
	if want.Report.Resilience != nil {
		t.Fatal("clean run should not attach resilience stats")
	}
	check := func(name string, got *sim.RunResult) {
		t.Helper()
		for qi := range want.Results {
			if len(got.Results[qi]) != len(want.Results[qi]) {
				t.Fatalf("%s q%d: %d results, want %d", name, qi, len(got.Results[qi]), len(want.Results[qi]))
			}
			for j := range want.Results[qi] {
				if got.Results[qi][j] != want.Results[qi][j] {
					t.Fatalf("%s q%d result %d: %+v != %+v — degradation changed a result bit",
						name, qi, j, got.Results[qi][j], want.Results[qi][j])
				}
			}
		}
		rs := got.Report.Resilience
		if rs == nil {
			t.Fatalf("%s: faulty run attached no resilience stats", name)
		}
		if rs.FaultInjections == 0 || rs.Fallbacks == 0 || rs.BreakerTrips == 0 || rs.DegradedRanks == 0 {
			t.Fatalf("%s: vacuous chaos run: %+v", name, rs)
		}
		t.Logf("%s system chaos: %+v", name, rs)
	}
	check("fixed", inject(model(sim.DefaultConfig())).RunHNSW(ds.Queries, 10, 50))

	// Adaptive mixed precision degrades exactly like fixed depth: the
	// resilient wrap drops the adaptive mode, so a RecallTarget 0.9 system
	// under the same schedule is bitwise the clean fixed run.
	cfg := sim.DefaultConfig()
	cfg.RecallTarget = 0.9
	adaptive := model(cfg)
	if adaptive.Precision == nil {
		t.Fatal("RecallTarget 0.9 built no precision map — the adaptive arm would be vacuous")
	}
	check("adaptive", inject(adaptive).RunHNSW(ds.Queries, 10, 50))
}
