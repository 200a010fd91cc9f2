package core

import (
	"math"
	"testing"

	"ansmet/internal/dataset"
	"ansmet/internal/hnsw"
	"ansmet/internal/layout"
	"ansmet/internal/prefixelim"
)

// TestTieredMatchesExactKNN: at Budget 1 the tiered pipeline's results are
// byte-identical to ExactKNN across metrics, element types and seeds — the
// stage-2 cut is provably lossless.
func TestTieredMatchesExactKNN(t *testing.T) {
	for _, name := range []string{"SIFT", "DEEP", "GloVe", "GIST"} {
		for _, seed := range []uint64{31, 77} {
			p := dataset.ProfileByName(name)
			ds := dataset.Generate(p, 700, 4, seed)
			st, err := BuildStore(ds.Rows(),
				layout.SimpleHeuristicSchedule(p.Elem), prefixelim.Config{})
			if err != nil {
				t.Fatal(err)
			}
			eng := st.NewETEngine(p.Metric)
			var dst []hnsw.Neighbor
			for qi, q := range ds.Queries {
				want, _, _ := eng.ExactKNN(nil, q, 10)
				var stats TieredStats
				dst, stats = eng.TieredKNNInto(nil, q, 10, TieredOpts{Budget: 1}, dst)
				if len(dst) != len(want) {
					t.Fatalf("%s/%d q%d: %d results, want %d", name, seed, qi, len(dst), len(want))
				}
				for j := range want {
					if dst[j] != want[j] {
						t.Fatalf("%s/%d q%d result %d: %+v != %+v",
							name, seed, qi, j, dst[j], want[j])
					}
				}
				if stats.Pool == 0 || stats.BoundLines == 0 {
					t.Fatalf("%s/%d q%d: implausible stats %+v", name, seed, qi, stats)
				}
			}
		}
	}
}

// TestTieredMatchesExactKNNPrefixElim: same identity on a prefix-eliminated
// store with outlier-encoded vectors (the outlier RunBound path plus the
// stage-2 backup re-check).
func TestTieredMatchesExactKNNPrefixElim(t *testing.T) {
	p := dataset.ProfileByName("SPACEV")
	ds := dataset.Generate(p, 1000, 6, 13)
	cfg := DefaultSystemConfig(NDPETOpt)
	cfg.SampleSize = 80
	ix, err := hnsw.Build(ds.Rows(), p.Metric, hnsw.Config{M: 8, MaxDegree: 16, EfConstruction: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(ds.Rows(), p.Metric, ix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Params.PrefixLen == 0 {
		t.Fatal("SPACEV-like data should get a common prefix")
	}
	eng := sys.Store.NewETEngine(p.Metric)
	for qi, q := range ds.Queries {
		want, _, _ := eng.ExactKNN(nil, q, 10)
		got, stats := eng.TieredKNNInto(nil, q, 10, TieredOpts{}, nil)
		if len(got) != len(want) {
			t.Fatalf("q%d: %d results, want %d", qi, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("q%d result %d: %+v != %+v", qi, j, got[j], want[j])
			}
		}
		if sys.Store.NumOutliers() > 0 && stats.Pool == 0 {
			t.Fatalf("q%d: empty pool", qi)
		}
	}
}

// TestTieredPoolByteIdentity: the stage-2 results are byte-identical to an
// exact scan restricted to the surviving pool — same Compare kernels, same
// heap, same (Dist, ID) tie-break.
func TestTieredPoolByteIdentity(t *testing.T) {
	for _, name := range []string{"SIFT", "GloVe"} {
		p := dataset.ProfileByName(name)
		ds := dataset.Generate(p, 900, 4, 57)
		st, err := BuildStore(ds.Rows(),
			layout.SimpleHeuristicSchedule(p.Elem), prefixelim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		eng := st.NewETEngine(p.Metric)
		check := st.NewETEngine(p.Metric)
		for qi, q := range ds.Queries {
			for _, budget := range []float64{0.8, 1} {
				got, _, pool := eng.TieredKNNPool(nil, q, 10, TieredOpts{Budget: budget}, nil, []uint32{})
				// Exact top-k over exactly the pool ids, via unbounded
				// exact comparisons.
				check.StartQuery(q)
				var want []hnsw.Neighbor
				for _, id := range pool {
					r := check.Compare(id, math.Inf(1))
					want = insertSorted(want, hnsw.Neighbor{ID: id, Dist: r.Dist}, 10)
				}
				if len(got) != len(want) {
					t.Fatalf("%s q%d B=%v: %d results, want %d", name, qi, budget, len(got), len(want))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("%s q%d B=%v result %d: %+v != %+v",
							name, qi, budget, j, got[j], want[j])
					}
				}
			}
		}
	}
}

// insertSorted maintains a sorted (Dist, ID) top-k list.
func insertSorted(list []hnsw.Neighbor, n hnsw.Neighbor, k int) []hnsw.Neighbor {
	pos := len(list)
	for pos > 0 && (list[pos-1].Dist > n.Dist ||
		(list[pos-1].Dist == n.Dist && list[pos-1].ID > n.ID)) {
		pos--
	}
	list = append(list, hnsw.Neighbor{})
	copy(list[pos+1:], list[pos:])
	list[pos] = n
	if len(list) > k {
		list = list[:k]
	}
	return list
}

// TestTieredBudgetMonotone: a larger budget re-ranks a superset pool — in
// fact the smaller budget's pool is an exact visit-order prefix of the
// larger one's, because stage 1 is budget-independent and the stage-2 pop
// order is deterministic.
func TestTieredBudgetMonotone(t *testing.T) {
	p := dataset.ProfileByName("DEEP")
	ds := dataset.Generate(p, 1200, 5, 91)
	st, err := BuildStore(ds.Rows(),
		layout.SimpleHeuristicSchedule(p.Elem), prefixelim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng := st.NewETEngine(p.Metric)
	budgets := []float64{0.5, 0.8, 0.9, 0.95, 1}
	for qi, q := range ds.Queries {
		var prev []uint32
		prevBudget := 0.0
		for _, b := range budgets {
			_, _, pool := eng.TieredKNNPool(nil, q, 10, TieredOpts{Budget: b}, nil, []uint32{})
			if len(pool) < len(prev) {
				t.Fatalf("q%d: budget %v pool %d < budget %v pool %d",
					qi, b, len(pool), prevBudget, len(prev))
			}
			for i := range prev {
				if pool[i] != prev[i] {
					t.Fatalf("q%d: budget %v pool is not a prefix of budget %v pool at %d (%d != %d)",
						qi, prevBudget, b, i, prev[i], pool[i])
				}
			}
			prev, prevBudget = pool, b
		}
	}
}

// TestTieredCancellation exercises both stages' cooperative checkpoints.
// GloVe-like data with 1-line bounds keeps the stage-2 pool at the full
// population, so the second stage reliably crosses checkpoint strides.
func TestTieredCancellation(t *testing.T) {
	p := dataset.ProfileByName("GloVe")
	ds := dataset.Generate(p, 1500, 2, 41)
	st, err := BuildStore(ds.Rows(),
		layout.SimpleHeuristicSchedule(p.Elem), prefixelim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng := st.NewETEngine(p.Metric)
	q := ds.Queries[0]

	// Nil done: identical to the plain call.
	want, wantStats := eng.TieredKNNInto(nil, q, 10, TieredOpts{}, nil)
	if wantStats.Cancelled {
		t.Fatal("nil done reported cancellation")
	}

	// Pre-closed done: stage 1 aborts empty (bounds are not answers).
	closed := make(chan struct{})
	close(closed)
	nn, stats := eng.TieredKNNInto(closed, q, 10, TieredOpts{}, nil)
	if !stats.Cancelled || len(nn) != 0 || stats.Pool != 0 {
		t.Fatalf("pre-closed done: %+v / %d results", stats, len(nn))
	}

	// Fired at a stage-2 checkpoint: the hook counts checkpoint visits;
	// stage 1 owns the first ceil(1500/256)=6, so the 7th+stride falls at
	// stage-2 pop 256. The partial result must be the exact top-k of the
	// 256 pool ids visited before the cut — verified against unbounded
	// re-comparison of exactly those ids. MaxBoundLines 1 coarsens the
	// bounds so the pool is guaranteed to outlast the first stride.
	stage1Checkpoints := (1500 + knnCancelStride - 1) / knnCancelStride
	calls := 0
	mid := make(chan struct{})
	exactScanTestHook = func(id uint32) {
		calls++
		if calls == stage1Checkpoints+2 {
			close(mid)
		}
	}
	defer func() { exactScanTestHook = nil }()
	nn2, stats2, pool := eng.TieredKNNPool(mid, q, 10, TieredOpts{MaxBoundLines: 1}, nil, []uint32{})
	if !stats2.Cancelled {
		t.Fatal("stage-2 cancellation never observed")
	}
	if stats2.Pool != knnCancelStride || len(pool) != knnCancelStride {
		t.Fatalf("stage-2 cancel visited %d/%d pool ids, want %d",
			stats2.Pool, len(pool), knnCancelStride)
	}
	check := st.NewETEngine(p.Metric)
	check.StartQuery(q)
	var wantPartial []hnsw.Neighbor
	for _, id := range pool {
		r := check.Compare(id, math.Inf(1))
		wantPartial = insertSorted(wantPartial, hnsw.Neighbor{ID: id, Dist: r.Dist}, 10)
	}
	if len(nn2) != len(wantPartial) {
		t.Fatalf("partial: %d results, want %d", len(nn2), len(wantPartial))
	}
	for i := range wantPartial {
		if nn2[i] != wantPartial[i] {
			t.Fatalf("partial result %d: %+v != %+v", i, nn2[i], wantPartial[i])
		}
	}

	// And an un-cancelled rerun on the same engine reproduces the full
	// answer (scratch state fully resets between queries).
	exactScanTestHook = nil
	again, _ := eng.TieredKNNInto(nil, q, 10, TieredOpts{}, nil)
	for i := range want {
		if again[i] != want[i] {
			t.Fatalf("post-cancel rerun diverged at %d: %+v != %+v", i, again[i], want[i])
		}
	}
}

// TestTieredSavesLines: the headline economics — at Budget 1 (exact
// answers) the tiered pipeline moves substantially fewer lines than the
// already-early-terminating exact scan on well-structured data.
func TestTieredSavesLines(t *testing.T) {
	p := dataset.ProfileByName("GIST")
	ds := dataset.Generate(p, 1500, 6, 33)
	st, err := BuildStore(ds.Rows(),
		layout.SimpleHeuristicSchedule(p.Elem), prefixelim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng := st.NewETEngine(p.Metric)
	exactLines, tieredLines := 0, 0
	for _, q := range ds.Queries {
		_, lines, _ := eng.ExactKNN(nil, q, 10)
		exactLines += lines
		_, stats := eng.TieredKNNInto(nil, q, 10, TieredOpts{}, nil)
		tieredLines += stats.BoundLines + stats.RerankLines
	}
	ratio := float64(tieredLines) / float64(exactLines)
	t.Logf("tiered/exact line ratio: %.2f (%d vs %d lines over %d queries)",
		ratio, tieredLines, exactLines, len(ds.Queries))
	if ratio > 0.9 {
		t.Errorf("tiered pipeline saved almost nothing over the exact scan (ratio %.2f)", ratio)
	}
}
