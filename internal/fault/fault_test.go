package fault_test

import (
	"testing"

	"ansmet/internal/core"
	"ansmet/internal/dataset"
	"ansmet/internal/fault"
	"ansmet/internal/hnsw"
	"ansmet/internal/sim"
)

func TestInjectorDeterminism(t *testing.T) {
	sched := &fault.Schedule{Seed: 42, Rules: []fault.Rule{
		{Kind: fault.CorruptPayload, Rank: -1, Prob: 0.3},
		{Kind: fault.DropPoll, Rank: 1, Prob: 0.5, After: 10, Count: 5},
	}}
	run := func() ([]fault.RuleStats, []fault.Kind) {
		inj := fault.NewInjector(sched)
		var fired []fault.Kind // -1 where nothing fired
		for i := 0; i < 200; i++ {
			for _, rank := range [...]int{i % 4, 1} {
				kind, ok := inj.Transient(rank)
				if !ok {
					kind = -1
				}
				fired = append(fired, kind)
			}
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
	if s1[1].Injections == 0 || s1[1].Injections > 5 {
		t.Fatalf("rule 1 injected %d times, want 1..5 (Count=5)", s1[1].Injections)
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
	var got []bool
	for i := 0; i < 4; i++ {
		kind, ok := inj.Transient(0)
		if ok && kind != fault.DelayPoll {
			t.Fatalf("opportunity %d fired %v, want %v", i, kind, fault.DelayPoll)
		}
		got = append(got, ok)
	}
	want := []bool{false, true, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fault.DelayPoll sequence %v, want %v", got, want)
		}
	}
	// A nil injector is inert.
	var none *fault.Injector
	if none.Crashed(0) || none.Stuck(0) {
		t.Fatal("nil injector injected")
	}
	if _, ok := none.Transient(0); ok {
		t.Fatal("nil injector injected a transient fault")
	}
}

// TestZeroValueRuleFires pins the Prob doc: the zero-value Rule of a Kind,
// aimed at every rank, injects at every opportunity.
func TestZeroValueRuleFires(t *testing.T) {
	const opportunities = 50
	for _, k := range [...]fault.Kind{fault.CorruptPayload, fault.DropPoll, fault.DelayPoll} {
		inj := fault.NewInjector(&fault.Schedule{Rules: []fault.Rule{{Kind: k, Rank: -1}}})
		for n := 0; n < opportunities; n++ {
			if got, ok := inj.Transient(n % 4); !ok || got != k {
				t.Fatalf("%v: opportunity %d gave (%v, %v)", k, n, got, ok)
			}
		}
		if got := inj.TotalInjections(); got != opportunities {
			t.Fatalf("%v: %d injections over %d opportunities", k, got, opportunities)
		}
	}
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
			{Kind: fault.CorruptPayload, Rank: -1, Prob: 0.1},
			{Kind: fault.DropPoll, Rank: -1, Prob: 0.05},
			{Kind: fault.DelayPoll, Rank: -1, Prob: 0.05},
			// Rank 0 sees fewer than 200 health checks over the batch: the
			// 40th falls mid-run.
			{Kind: fault.RankCrash, Rank: 0, After: 40},
		}}, fault.ResilienceConfig{MaxRetries: 1, FailureThreshold: 4, ProbeAfter: 32})
	}
	want := clean.RunHNSW(ds.Queries, 10, 50)
	if want.Report.Resilience != nil {
		t.Fatal("clean run should not attach resilience stats")
	}
	check := func(name string, m *sim.Model) {
		t.Helper()
		got := m.RunHNSW(ds.Queries, 10, 50)
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
		for i, st := range m.Injector.Stats() {
			if st.Injections == 0 {
				t.Fatalf("%s: rule %d (%v) never injected", name, i, st.Rule.Kind)
			}
		}
		t.Logf("%s system chaos: %+v", name, rs)
	}
	check("fixed", inject(model(sim.DefaultConfig())))

	// Adaptive mixed precision degrades exactly like fixed depth: the
	// resilient wrap drops the adaptive mode, so a RecallTarget 0.9 system
	// under the same schedule is bitwise the clean fixed run.
	cfg := sim.DefaultConfig()
	cfg.RecallTarget = 0.9
	adaptive := model(cfg)
	if adaptive.Precision == nil {
		t.Fatal("RecallTarget 0.9 built no precision map — the adaptive arm would be vacuous")
	}
	check("adaptive", inject(adaptive))
}
