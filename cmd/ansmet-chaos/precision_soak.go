// Precision soak: adaptive mixed-precision search under an NDP rank crash
// must degrade exactly like fixed-depth search — never less safely. The
// resilience wrap is the mechanism: degraded comparisons run on the
// CPU-exact fallback, whose contract is exact distances, so the adaptive
// beam mode is deliberately not installed on resilience-wrapped engines
// (sim.Model.NewWorkerEngine). The soak runs a RecallTarget model and a
// fixed twin under one crash schedule and checks:
//
//   - the schedule is not vacuous: the crash trips a breaker in both;
//   - every query returns a full result set (retry + per-comparison
//     fallback absorb the crash);
//   - the adaptive model's beam answers are bitwise identical to the fixed
//     model's — the knob vanishes cleanly instead of mixing approximate
//     accepts into fallback results.
package main

import (
	"fmt"

	"ansmet/internal/core"
	"ansmet/internal/dataset"
	"ansmet/internal/fault"
	"ansmet/internal/hnsw"
	"ansmet/internal/sim"
)

func runPrecisionSoak(n int, seed uint64) error {
	p := dataset.ProfileByName("DEEP")
	ds := dataset.Generate(p, n, 8, 61)
	slab := ds.Rows()
	ix, err := hnsw.Build(slab, p.Metric, hnsw.Config{M: 16, MaxDegree: 16, EfConstruction: 60, Seed: 7})
	if err != nil {
		return err
	}
	run := func(target float64) (*sim.Model, *sim.RunResult, error) {
		cfg := core.DefaultSystemConfig(core.NDPETOpt)
		cfg.Seed, cfg.RecallTarget = 7, target
		sys, err := core.NewSystem(slab, p.Metric, ix, cfg)
		if err != nil {
			return nil, nil, err
		}
		// A huge ProbeAfter keeps the crashed rank fenced for the whole
		// soak, so "degraded" is a stable state to assert against.
		m := sim.NewModel(sys).InjectFaults(&fault.Schedule{Seed: seed, Rules: []fault.Rule{
			{Kind: fault.RankCrash, Rank: 0, After: 40},
		}}, fault.ResilienceConfig{MaxRetries: 1, FailureThreshold: 4, ProbeAfter: 1 << 30})
		return m, m.RunHNSW(ds.Queries, 10, 50), nil
	}
	adaptive, a, err := run(0.9)
	if err != nil {
		return err
	}
	fixed, f, err := run(0)
	if err != nil {
		return err
	}
	if adaptive.Precision == nil || fixed.Precision != nil {
		return fmt.Errorf("precision machinery mis-wired: adaptive map %v, fixed map %v",
			adaptive.Precision != nil, fixed.Precision != nil)
	}
	for name, r := range map[string]*sim.RunResult{"adaptive": a, "fixed": f} {
		if rs := r.Report.Resilience; rs == nil || rs.BreakerTrips == 0 || rs.DegradedRanks == 0 {
			return fmt.Errorf("%s: rank crash never tripped a breaker — vacuous run: %+v", name, rs)
		}
	}
	fmt.Printf("    crash absorbed: both models degraded (adaptive fallbacks=%d, fixed fallbacks=%d)\n",
		a.Report.Resilience.Fallbacks, f.Report.Resilience.Fallbacks)
	for qi := range ds.Queries {
		if len(a.Results[qi]) != 10 {
			return fmt.Errorf("adaptive query %d returned %d results, want 10", qi, len(a.Results[qi]))
		}
		if err := identical(a.Results[qi], f.Results[qi]); err != nil {
			return fmt.Errorf("degraded beam query %d: adaptive diverged from fixed: %w", qi, err)
		}
	}
	fmt.Printf("    degraded beam: %d queries bitwise identical to the fixed-depth model\n", len(ds.Queries))
	return nil
}
