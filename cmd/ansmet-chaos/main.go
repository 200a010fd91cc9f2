// Command ansmet-chaos runs the chaos scenarios: the fault-injection ones
// against the simulated NDP platform, which check the two degradation
// invariants (DESIGN.md, "Fault model and degradation semantics"),
//
//  1. Recoverable faults (payload corruption, dropped/delayed polls,
//     detectable rank crashes) never change search results: retry and
//     CPU-exact fallback reproduce the fault-free answers.
//  2. Unrecoverable silent faults (stored-line bit flips that evade the
//     bound-monotonicity check) never panic, always return full result
//     sets, and keep recall above the CPU-fallback floor.
//
// and the serving ones (serve, cluster, router) against the database, the
// HTTP stack and the sharded coordinator.
//
// Usage:
//
//	ansmet-chaos [-scenario all|recoverable|crash|silent|precision|...] [-n 400] [-q 8] [-seed 99]
//
// The process exits non-zero if any invariant is violated.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"ansmet/internal/bitplane"
	"ansmet/internal/core"
	"ansmet/internal/dataset"
	"ansmet/internal/engine"
	"ansmet/internal/fault"
	"ansmet/internal/hnsw"
	"ansmet/internal/ndp"
	"ansmet/internal/prefixelim"
	"ansmet/internal/sim"
)

func main() {
	scenario := flag.String("scenario", "all", "chaos scenario: all, recoverable, crash, silent, precision, serve, cluster, router")
	n := flag.Int("n", 400, "dataset size")
	nq := flag.Int("q", 8, "query count")
	seed := flag.Uint64("seed", 99, "fault schedule seed")
	flag.Parse()

	switch *scenario {
	case "all", "recoverable", "crash", "silent", "precision", "serve", "cluster", "router":
	default:
		fmt.Fprintf(os.Stderr, "unknown -scenario %q (want all, recoverable, crash, silent, precision, serve, cluster or router)\n", *scenario)
		os.Exit(2)
	}
	if *n < 50 || *nq < 1 {
		fmt.Fprintf(os.Stderr, "need -n >= 50 and -q >= 1 (got -n %d -q %d)\n", *n, *nq)
		os.Exit(2)
	}

	failed := false
	run := func(name string, fn func() error) {
		fmt.Printf("=== scenario: %s ===\n", name)
		if err := fn(); err != nil {
			fmt.Printf("FAIL %s: %v\n\n", name, err)
			failed = true
			return
		}
		fmt.Printf("PASS %s\n\n", name)
	}

	sel := *scenario
	if sel == "all" || sel == "recoverable" {
		run("recoverable (protocol-level corruption + drops)", func() error {
			return runRecoverable(*n, *nq, *seed)
		})
	}
	if sel == "all" || sel == "crash" {
		run("crash (system-level mid-run rank crash)", func() error {
			return runCrash(*n, *nq, *seed)
		})
	}
	if sel == "all" || sel == "silent" {
		run("silent (stored-line bit flips, recall floor)", func() error {
			return runSilent(*n, *nq, *seed)
		})
	}
	if sel == "all" || sel == "precision" {
		run("precision (adaptive mixed-precision model under rank crash)", func() error {
			return runPrecisionSoak(*n, *seed)
		})
	}
	if sel == "all" || sel == "serve" {
		run("serve (HTTP soak: overload, cancels, garbage, panics, drain)", func() error {
			return runServeSoak(*n, *seed)
		})
	}
	if sel == "all" || sel == "cluster" {
		run("cluster (sharded soak: crashed + slow + flapping shards)", func() error {
			return runClusterSoak(*n, *seed)
		})
	}
	if sel == "all" || sel == "router" {
		run("router (deadline pressure: auto routing between exact and the host beam)", func() error {
			return runRouterSoak(*n)
		})
	}
	if failed {
		os.Exit(1)
	}
}

// rig is the protocol-level serving stack: a clean reference HostAdapter
// and a resilient adapter whose device and rank storage are wrapped in
// fault injection, both over the same transformed slab.
type rig struct {
	ref       engine.Engine
	resilient *fault.Resilient
	injector  *fault.Injector
	index     *hnsw.Index
	ds        *dataset.Dataset
	queries   [][]float32
}

func newRig(n, nq int, sched *fault.Schedule, res fault.ResilienceConfig) (*rig, error) {
	p := dataset.ProfileByName("SIFT")
	ds := dataset.Generate(p, n, nq, 31)
	rs := ds.Rows()
	ix, err := hnsw.Build(rs, p.Metric, hnsw.Config{M: 8, MaxDegree: 16, EfConstruction: 60, Seed: 1})
	if err != nil {
		return nil, err
	}
	bsched := bitplane.UniformSchedule(p.Elem, 0, 4)
	st, err := core.BuildStore(rs, bsched, prefixelim.Config{})
	if err != nil {
		return nil, err
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
		return nil, err
	}

	inj := fault.NewInjector(sched)
	rank := ndp.RankData(ndp.SliceRank{Bytes: slab, VectorBytes: l.VectorBytes()})
	rank = fault.NewFaultyRank(rank, inj, 0)
	dev := fault.NewFaultyDevice(ndp.NewUnit(rank), inj, 0)
	// Configuring over the faulty link can itself fail; retry like a host
	// memory controller.
	var hw *ndp.HostAdapter
	for attempt := 0; ; attempt++ {
		hw, err = ndp.NewHostAdapter(dev, cfg)
		if err == nil {
			break
		}
		if attempt > 1000 {
			return nil, fmt.Errorf("configure never succeeded over faulty link: %w", err)
		}
	}
	fb := engine.NewExactOver(rs, p.Metric)
	return &rig{
		ref:       ref,
		resilient: fault.NewResilient(hw, fb, nil, nil, nil, res),
		injector:  inj,
		index:     ix,
		ds:        ds,
		queries:   ds.Queries,
	}, nil
}

func printInjector(inj *fault.Injector) {
	for _, rs := range inj.Stats() {
		fmt.Printf("  rule %-14s rank=%-2d opportunities=%-6d injections=%d\n",
			rs.Rule.Kind, rs.Rule.Rank, rs.Opportunities, rs.Injections)
	}
}

func printCounters(c fault.CounterSnapshot) {
	fmt.Printf("  attempts=%d retries=%d failures=%d fallbacks=%d trips=%d probes=%d reenables=%d panics=%d\n",
		c.Attempts, c.Retries, c.Failures, c.Fallbacks, c.BreakerTrips, c.Probes, c.Reenables, c.Panics)
}

// runRecoverable drives searches through a link that corrupts payloads and
// drops/delays polls, and checks invariant 1: same IDs in the same order as
// the fault-free stack, distances equal at fp32 register precision (the NDP
// poll registers are fp32; the CPU fallback reports the same distance in
// fp64).
func runRecoverable(n, nq int, seed uint64) error {
	sched := &fault.Schedule{Seed: seed, Rules: []fault.Rule{
		{Kind: fault.CorruptPayload, Rank: -1, Op: -1, Prob: 0.15, Bits: 2},
		{Kind: fault.DropPoll, Rank: -1, Prob: 0.1},
		{Kind: fault.DelayPoll, Rank: -1, Prob: 0.1},
	}}
	r, err := newRig(n, nq, sched, fault.ResilienceConfig{MaxRetries: 3, FailureThreshold: 8, ProbeAfter: 16})
	if err != nil {
		return err
	}
	for qi, q := range r.queries {
		want := r.index.Search(q, 10, 50, r.ref, nil)
		got := r.index.Search(q, 10, 50, r.resilient, nil)
		if err := sameNeighbors(got, want); err != nil {
			return fmt.Errorf("query %d: %w", qi, err)
		}
	}
	printInjector(r.injector)
	c := r.resilient.Counters().Snapshot()
	printCounters(c)
	if c.Retries == 0 && c.Fallbacks == 0 {
		return fmt.Errorf("schedule injected nothing the engine had to absorb — vacuous run")
	}
	fmt.Printf("  %d queries byte-identical to the fault-free run\n", len(r.queries))
	return nil
}

// runCrash runs whole-system query batches on a model whose rank 0 crashes
// mid-run, and checks invariant 1 at the system level: bitwise identical
// results (both the NDP software model and the CPU fallback compute fp64
// distances here), breaker opened, comparisons degraded to the fallback.
func runCrash(n, nq int, seed uint64) error {
	p := dataset.ProfileByName("DEEP")
	ds := dataset.Generate(p, n, nq, 77)
	slab := ds.Rows()
	ix, err := hnsw.Build(slab, p.Metric, hnsw.Config{M: 8, MaxDegree: 16, EfConstruction: 60, Seed: 1})
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(slab, p.Metric, ix, core.DefaultSystemConfig(core.NDPET))
	if err != nil {
		return err
	}
	clean := sim.NewModel(sys)
	faulty := sim.NewModel(sys).InjectFaults(&fault.Schedule{Seed: seed, Rules: []fault.Rule{
		{Kind: fault.CorruptPayload, Rank: -1, Op: -1, Prob: 0.1},
		{Kind: fault.DropPoll, Rank: -1, Prob: 0.05},
		{Kind: fault.RankCrash, Rank: 0, After: 40},
	}}, fault.ResilienceConfig{MaxRetries: 1, FailureThreshold: 4, ProbeAfter: 32})
	want := clean.RunHNSW(ds.Queries, 10, 50)
	got := faulty.RunHNSW(ds.Queries, 10, 50)
	for qi := range want.Results {
		if len(got.Results[qi]) != len(want.Results[qi]) {
			return fmt.Errorf("query %d: %d results, want %d", qi, len(got.Results[qi]), len(want.Results[qi]))
		}
		for j := range want.Results[qi] {
			if got.Results[qi][j] != want.Results[qi][j] {
				return fmt.Errorf("query %d result %d: %+v != %+v — degradation changed a result bit",
					qi, j, got.Results[qi][j], want.Results[qi][j])
			}
		}
	}
	printInjector(faulty.Injector)
	c := faulty.Faults.Snapshot()
	printCounters(c)
	rs := got.Report.Resilience
	if rs == nil || rs.Fallbacks == 0 || rs.BreakerTrips == 0 {
		return fmt.Errorf("crash never degraded a comparison — vacuous run")
	}
	fmt.Printf("  degraded ranks now: %d; %d queries bitwise identical to the fault-free system\n",
		faulty.Breakers.DegradedRanks(), len(ds.Queries))
	return nil
}

// runSilent flips random bits in stored bit-plane lines. Such flips can
// evade the bound-monotonicity check (a corrupted line may still produce
// monotone bounds), so identical results are NOT guaranteed; invariant 2
// requires no panic, full result sets, and recall above the floor.
func runSilent(n, nq int, seed uint64) error {
	sched := &fault.Schedule{Seed: seed, Rules: []fault.Rule{
		{Kind: fault.CorruptLine, Rank: -1, Prob: 0.02, Bits: 1},
	}}
	r, err := newRig(n, nq, sched, fault.ResilienceConfig{MaxRetries: 1, FailureThreshold: 1 << 30, ProbeAfter: 16})
	if err != nil {
		return err
	}
	truths := r.ds.GroundTruth(10)
	var recallSum float64
	for qi, q := range r.queries {
		got := r.index.Search(q, 10, 50, r.resilient, nil)
		if len(got) != 10 {
			return fmt.Errorf("query %d returned %d results, want 10", qi, len(got))
		}
		hits := 0
		for _, nb := range got {
			for _, id := range truths[qi] {
				if nb.ID == id {
					hits++
					break
				}
			}
		}
		recallSum += float64(hits) / 10
	}
	recall := recallSum / float64(len(r.queries))
	printInjector(r.injector)
	printCounters(r.resilient.Counters().Snapshot())
	fmt.Printf("  recall under silent line corruption: %.3f (floor 0.6)\n", recall)
	if recall < 0.6 {
		return fmt.Errorf("recall %.3f below the 0.6 CPU-fallback floor", recall)
	}
	return nil
}

func sameNeighbors(got, want []hnsw.Neighbor) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for j := range got {
		if got[j].ID != want[j].ID ||
			math.Abs(got[j].Dist-want[j].Dist) > 1e-4*math.Max(1, math.Abs(want[j].Dist)) {
			return fmt.Errorf("result %d: %+v != %+v", j, got[j], want[j])
		}
	}
	return nil
}
