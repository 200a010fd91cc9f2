// Precision soak: adaptive mixed-precision search under an NDP rank crash
// must degrade exactly like the fixed-depth database — never less safely.
// The resilience wrap is the mechanism: degraded comparisons run on the
// CPU-exact fallback, whose contract is exact distances, so the adaptive
// beam mode is deliberately not installed on resilience-wrapped engines
// (Database.getScratch). The probe drives a RecallTarget database and a
// fixed twin through the same scheduled crash and checks:
//
//   - every query keeps returning full result sets while the crash trips
//     the breaker (retry + per-comparison fallback absorb it);
//   - once degraded, the adaptive database's beam answers are bitwise
//     identical to the degraded fixed database's — the knob vanishes
//     cleanly instead of mixing approximate accepts into fallback results;
//   - the tiered path (which reads the store directly and keeps its
//     adaptive depth map) still returns full result sets above the recall
//     floor, and the recall-target tuner keeps folding in observations.
package main

import (
	"fmt"

	"ansmet"
	"ansmet/internal/core"
	"ansmet/internal/dataset"
	"ansmet/internal/engine"
	"ansmet/internal/fault"
)

func runPrecisionSoak(n int, seed uint64) error {
	p := dataset.ProfileByName("DEEP")
	ds := dataset.Generate(p, n, 8, 61)
	build := func(target float64) (*ansmet.Database, error) {
		cfg := core.DefaultSystemConfig(core.NDPETOpt)
		cfg.Fault = &fault.Schedule{Seed: seed, Rules: []fault.Rule{
			{Kind: fault.RankCrash, Rank: 0, After: 40},
		}}
		// A huge ProbeAfter keeps the crashed rank fenced for the whole
		// soak, so "degraded" is a stable state to assert against.
		cfg.Resilience = engine.ResilienceConfig{MaxRetries: 1, FailureThreshold: 4, ProbeAfter: 1 << 30}
		return ansmet.New(ds.Vectors, ansmet.Options{
			Metric: p.Metric, Elem: p.Elem, EfConstruction: 60, Seed: 7,
			RecallTarget: target, Advanced: &cfg,
		})
	}
	adaptive, err := build(0.9)
	if err != nil {
		return err
	}
	fixed, err := build(0)
	if err != nil {
		return err
	}
	if !adaptive.PrecisionStats().Enabled || fixed.PrecisionStats().Enabled {
		return fmt.Errorf("precision machinery mis-wired: adaptive=%v fixed=%v",
			adaptive.PrecisionStats().Enabled, fixed.PrecisionStats().Enabled)
	}

	// Phase 1: drive both databases until the scheduled crash trips their
	// breakers. Full result sets throughout — a mid-escalation crash must
	// be absorbed by retry + fallback, never surfaced.
	for name, db := range map[string]*ansmet.Database{"adaptive": adaptive, "fixed": fixed} {
		tripped := false
		for i := 0; i < 500 && !tripped; i++ {
			nn, err := db.SearchInto(ds.Queries[i%len(ds.Queries)], 10, 50, nil)
			if err != nil {
				return fmt.Errorf("%s query during crash phase: %v", name, err)
			}
			if len(nn) != 10 {
				return fmt.Errorf("%s query during crash phase returned %d results, want 10", name, len(nn))
			}
			tripped = db.Stats().DegradedRanks > 0
		}
		if !tripped {
			return fmt.Errorf("%s: rank crash never tripped a breaker — vacuous run: %+v", name, db.Stats())
		}
	}
	fmt.Printf("    crash absorbed: both databases degraded (adaptive fallbacks=%d, fixed fallbacks=%d)\n",
		adaptive.Stats().FallbackComparisons, fixed.Stats().FallbackComparisons)

	// Phase 2: on the degraded stack the adaptive beam must be bitwise
	// indistinguishable from the fixed one — resilience-wrapped engines
	// never install the precision mode, so both run the same comparisons.
	for qi, q := range ds.Queries {
		a, err := adaptive.SearchInto(q, 10, 50, nil)
		if err != nil {
			return fmt.Errorf("degraded adaptive query %d: %v", qi, err)
		}
		f, err := fixed.SearchInto(q, 10, 50, nil)
		if err != nil {
			return fmt.Errorf("degraded fixed query %d: %v", qi, err)
		}
		if err := identical(a, f); err != nil {
			return fmt.Errorf("degraded beam query %d: adaptive diverged from fixed: %w", qi, err)
		}
	}
	fmt.Printf("    degraded beam: %d queries bitwise identical to the fixed-depth database\n", len(ds.Queries))

	// Phase 3: the tiered path keeps its adaptive depth map (it reads the
	// store directly, below the fault injection), so it must stay live,
	// full and accurate, and keep feeding the tuner.
	gt := ds.GroundTruth(10)
	before := adaptive.PrecisionStats().Observations
	recallSum := 0.0
	for qi, q := range ds.Queries {
		nn, _, err := adaptive.TieredSearchInto(q, 10, 0, nil)
		if err != nil {
			return fmt.Errorf("degraded tiered query %d: %v", qi, err)
		}
		if len(nn) != 10 {
			return fmt.Errorf("degraded tiered query %d returned %d results, want 10", qi, len(nn))
		}
		ids := make([]uint32, len(nn))
		for i, nb := range nn {
			ids[i] = nb.ID
		}
		recallSum += ansmet.RecallAtK(ids, gt[qi])
	}
	recall := recallSum / float64(len(ds.Queries))
	after := adaptive.PrecisionStats().Observations
	if after <= before {
		return fmt.Errorf("tuner stopped observing under degradation (%d -> %d)", before, after)
	}
	fmt.Printf("    degraded tiered: recall %.3f (floor 0.8), tuner observations %d -> %d\n",
		recall, before, after)
	if recall < 0.8 {
		return fmt.Errorf("degraded tiered recall %.3f below the 0.8 floor", recall)
	}
	return nil
}
