package core_test

// The tiered route's budget knob and its steady state, on an NDP-ETOpt
// model as Database.NewSystem builds one.

import (
	"testing"

	"ansmet/internal/core"
	"ansmet/internal/dataset"
	"ansmet/internal/hnsw"
)

// tieredRoute builds the NDP-ETOpt model over n SIFT-profile vectors and
// returns its tiered engine and the queries quantized to the element type.
func tieredRoute(t *testing.T, n, nq, efc int, seed uint64) (*core.ETEngine, [][]float32) {
	t.Helper()
	ds := dataset.Generate(dataset.ProfileByName("SIFT"), n, nq, seed)
	models, err := recallTargetSystems(ds, efc, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]float32, len(ds.Queries))
	for i, q := range ds.Queries {
		queries[i] = make([]float32, len(q))
		for d, x := range q {
			queries[i][d] = ds.Profile.Elem.Quantize(x)
		}
	}
	return models[0].System.NewWorkerEngine().(*core.ETEngine), queries
}

// TestTieredBudgetKnob: a budget below 1 still returns k results, and
// budget 1 re-ranks at least as large a pool.
func TestTieredBudgetKnob(t *testing.T) {
	et, queries := tieredRoute(t, 400, 4, 60, 11)
	nn, st := et.TieredKNNInto(nil, queries[0], 5, core.TieredOpts{Budget: 0.8}, nil)
	if len(nn) != 5 {
		t.Fatalf("budget 0.8: %d results (stats %+v)", len(nn), st)
	}
	if _, st1 := et.TieredKNNInto(nil, queries[0], 5, core.TieredOpts{Budget: 1}, nil); st1.Pool < st.Pool {
		t.Fatalf("budget 1 pool %d < budget 0.8 pool %d", st1.Pool, st.Pool)
	}
}

// TestTieredSteadyStateAllocs gates the tiered pipeline's zero-allocation
// invariant: once warm, a query at budget 1 on one engine with a reused
// result slice performs zero heap allocations.
func TestTieredSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	et, queries := tieredRoute(t, 2000, 16, 100, 99)
	var dst []hnsw.Neighbor
	i := 0
	query := func() {
		dst, _ = et.TieredKNNInto(nil, queries[i%len(queries)], 10, core.TieredOpts{Budget: 1}, dst)
		i++
	}
	for w := 0; w < 4; w++ {
		query()
	}
	if avg := testing.AllocsPerRun(100, query); avg != 0 {
		t.Fatalf("a tiered query allocates %.1f objects at steady state, want 0", avg)
	}
}
