// Public-API property tests for adaptive mixed-precision search: the
// RecallTarget knob's validation, its exactness endpoints, its search
// invariants and its zero-allocation steady state.
package ansmet_test

import (
	"testing"

	"ansmet"
	"ansmet/internal/dataset"
)

func precisionTestData() *dataset.Dataset {
	p := dataset.ProfileByName("GloVe")
	return dataset.Generate(p, 900, 8, 45)
}

func precisionTestDB(t *testing.T, target float64) *ansmet.Database {
	t.Helper()
	ds := precisionTestData()
	db, err := ansmet.New(ds.Vectors, ansmet.Options{
		Metric: ansmet.InnerProduct, Elem: ansmet.Float32,
		EfConstruction: 60, RecallTarget: target,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestRecallTargetValidation(t *testing.T) {
	ds := precisionTestData()
	for _, bad := range []float64{-0.1, 1.0001, 2} {
		_, err := ansmet.New(ds.Vectors, ansmet.Options{
			Metric: ansmet.InnerProduct, Elem: ansmet.Float32,
			EfConstruction: 60, RecallTarget: bad,
		})
		if err == nil {
			t.Errorf("New accepted RecallTarget %v", bad)
		}
	}
}

// TestAdaptiveSearchInvariants: a RecallTarget in (0, 1) turns the
// machinery on — stats populated, the tuner observing tiered queries. Its
// answers (full, well-formed, the exact route exact, the beam's recall within
// 0.05 of the host beam's) are the contract harness's adaptive cells'.
func TestAdaptiveSearchInvariants(t *testing.T) {
	ds := precisionTestData()
	ad := precisionTestDB(t, 0.9)

	st := ad.Stats()
	if st.RecallTarget != 0.9 || st.PrecisionClusters <= 0 || st.MeanDepthLines < 1 {
		t.Fatalf("adaptive Stats not populated: %+v", st)
	}
	ps := ad.PrecisionStats()
	if !ps.Enabled || ps.Target != 0.9 || ps.Budget < 0.9 || ps.Clusters != st.PrecisionClusters {
		t.Fatalf("PrecisionStats inconsistent: %+v", ps)
	}
	for _, q := range ds.Queries {
		if _, _, err := ad.TieredSearchInto(q, 10, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if obs := ad.PrecisionStats().Observations; obs < uint64(len(ds.Queries)) {
		t.Errorf("tuner folded in %d observations, want >= %d", obs, len(ds.Queries))
	}
}

// TestAdaptiveSteadyStateAllocs extends the zero-allocation gate to the
// adaptive database: the per-query precision refresh is two atomic loads
// and the tuner feedback a few atomic CAS loops — nothing heap-allocated
// on either the beam or the tiered path.
func TestAdaptiveSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ds := precisionTestData()
	db := precisionTestDB(t, 0.9)
	var (
		dst []ansmet.Neighbor
		err error
	)
	for i := 0; i < 4; i++ {
		if dst, err = db.SearchInto(ds.Queries[i%len(ds.Queries)], 10, 64, dst); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	if avg := testing.AllocsPerRun(100, func() {
		dst, err = db.SearchInto(ds.Queries[i%len(ds.Queries)], 10, 64, dst)
		i++
	}); avg != 0 {
		t.Fatalf("adaptive SearchInto allocates %.1f objects/query, want 0", avg)
	}
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if dst, _, err = db.TieredSearchInto(ds.Queries[i%len(ds.Queries)], 10, 0, dst); err != nil {
			t.Fatal(err)
		}
	}
	i = 0
	if avg := testing.AllocsPerRun(100, func() {
		dst, _, err = db.TieredSearchInto(ds.Queries[i%len(ds.Queries)], 10, 0, dst)
		i++
	}); avg != 0 {
		t.Fatalf("adaptive TieredSearchInto allocates %.1f objects/query, want 0", avg)
	}
	if err != nil {
		t.Fatal(err)
	}
}
