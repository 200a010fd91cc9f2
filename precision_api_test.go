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

// TestRecallTargetEndpointsByteIdentical: RecallTarget 0 (disabled) and 1
// ("exact recall") are defined as the same thing — both must produce
// results byte-identical to each other across every search surface. The
// identity is structural (neither endpoint builds the precision map or the
// tuner), and this test pins that structure down.
func TestRecallTargetEndpointsByteIdentical(t *testing.T) {
	ds := precisionTestData()
	fixed := precisionTestDB(t, 0)
	one := precisionTestDB(t, 1)
	if fixed.Stats().RecallTarget != 0 || one.Stats().RecallTarget != 0 {
		t.Fatalf("endpoint databases report adaptive state: %v / %v",
			fixed.Stats().RecallTarget, one.Stats().RecallTarget)
	}
	if fixed.PrecisionStats().Enabled || one.PrecisionStats().Enabled {
		t.Fatal("endpoint databases enabled the precision machinery")
	}
	for qi, q := range ds.Queries {
		a, err := fixed.SearchInto(q, 10, 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := one.SearchInto(q, 10, 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("q%d: %d vs %d results", qi, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("q%d beam result %d: %+v != %+v", qi, j, a[j], b[j])
			}
		}
		ta, _, err := fixed.TieredSearchInto(q, 10, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		tb, _, err := one.TieredSearchInto(q, 10, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ta {
			if ta[j] != tb[j] {
				t.Fatalf("q%d tiered result %d: %+v != %+v", qi, j, ta[j], tb[j])
			}
		}
		ea, _, err := exactSearch(fixed, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		eb, _, err := exactSearch(one, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ea {
			if ea[j] != eb[j] {
				t.Fatalf("q%d exact result %d: %+v != %+v", qi, j, ea[j], eb[j])
			}
		}
	}
}

// TestAdaptiveSearchInvariants: a RecallTarget in (0, 1) turns the
// machinery on (stats populated, tuner observing) and keeps the search
// contract: full result sets, recall within a modest slack of the
// fixed-depth baseline, and the exact route still exact.
func TestAdaptiveSearchInvariants(t *testing.T) {
	ds := precisionTestData()
	fixed := precisionTestDB(t, 0)
	ad := precisionTestDB(t, 0.9)

	st := ad.Stats()
	if st.RecallTarget != 0.9 || st.PrecisionClusters <= 0 || st.MeanDepthLines < 1 {
		t.Fatalf("adaptive Stats not populated: %+v", st)
	}
	ps := ad.PrecisionStats()
	if !ps.Enabled || ps.Target != 0.9 || ps.Budget < 0.9 || ps.Clusters != st.PrecisionClusters {
		t.Fatalf("PrecisionStats inconsistent: %+v", ps)
	}

	gt := ds.GroundTruth(10)
	recallOf := func(db *ansmet.Database) float64 {
		sum := 0.0
		for qi, q := range ds.Queries {
			res, err := db.SearchInto(q, 10, 64, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != 10 {
				t.Fatalf("q%d: %d results", qi, len(res))
			}
			ids := make([]uint32, len(res))
			for i, n := range res {
				ids[i] = n.ID
			}
			sum += ansmet.RecallAtK(ids, gt[qi])
		}
		return sum / float64(len(gt))
	}
	rFixed, rAd := recallOf(fixed), recallOf(ad)
	t.Logf("beam recall: fixed %.3f, adaptive %.3f", rFixed, rAd)
	if rAd < rFixed-0.05 {
		t.Errorf("adaptive beam recall %.3f more than 0.05 below fixed %.3f", rAd, rFixed)
	}

	// Tiered queries feed the tuner.
	for _, q := range ds.Queries {
		if _, _, err := ad.TieredSearchInto(q, 10, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if obs := ad.PrecisionStats().Observations; obs < uint64(len(ds.Queries)) {
		t.Errorf("tuner folded in %d observations, want >= %d", obs, len(ds.Queries))
	}

	// The exact route ignores the adaptive mode by construction.
	for qi, q := range ds.Queries {
		ea, _, err := exactSearch(ad, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		eb, _, err := exactSearch(fixed, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ea {
			if ea[j] != eb[j] {
				t.Fatalf("q%d: adaptive exact route diverged at %d: %+v != %+v",
					qi, j, ea[j], eb[j])
			}
		}
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
