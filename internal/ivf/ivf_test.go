package ivf

import (
	"testing"

	"ansmet/internal/dataset"
	"ansmet/internal/engine"
	"ansmet/internal/trace"
	"ansmet/internal/vecmath"
)

func buildIVF(t *testing.T, name string, n, k int) (*dataset.Dataset, *Index) {
	t.Helper()
	p := dataset.ProfileByName(name)
	ds := dataset.Generate(p, n, 20, 7)
	ix, err := Build(ds.Vectors, p.Metric, Config{NumClusters: k, MaxIters: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return ds, ix
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, vecmath.L2, DefaultConfig()); err == nil {
		t.Error("empty dataset should fail")
	}
}

func TestClusterPartition(t *testing.T) {
	_, ix := buildIVF(t, "SIFT", 600, 20)
	if ix.NumClusters() != 20 {
		t.Fatalf("clusters = %d", ix.NumClusters())
	}
	seen := make(map[uint32]bool)
	total := 0
	for c := 0; c < ix.NumClusters(); c++ {
		for _, id := range ix.lists[c] {
			if seen[id] {
				t.Fatalf("vector %d in multiple lists", id)
			}
			seen[id] = true
			total++
		}
	}
	if total != 600 {
		t.Fatalf("lists cover %d vectors, want 600", total)
	}
}

func TestDefaultClusterCount(t *testing.T) {
	p := dataset.ProfileByName("SIFT")
	ds := dataset.Generate(p, 400, 0, 7)
	ix, err := Build(ds.Vectors, p.Metric, Config{MaxIters: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumClusters() != 20 { // sqrt(400)
		t.Errorf("default clusters = %d, want 20", ix.NumClusters())
	}
}

func TestKMeansReducesSpread(t *testing.T) {
	// Members should be closer to their own centroid than to the average
	// centroid distance.
	ds, ix := buildIVF(t, "DEEP", 500, 16)
	own, other := 0.0, 0.0
	count := 0
	for c := 0; c < ix.NumClusters(); c++ {
		for _, id := range ix.lists[c] {
			own += vecmath.L2.Distance(ds.Vectors[id], ix.Centroids()[c])
			o := (c + 1) % ix.NumClusters()
			other += vecmath.L2.Distance(ds.Vectors[id], ix.Centroids()[o])
			count++
		}
	}
	if own >= other {
		t.Errorf("own-centroid distance %v >= other-centroid %v", own/float64(count), other/float64(count))
	}
}

func TestSearchRecall(t *testing.T) {
	ds, ix := buildIVF(t, "SIFT", 1000, 32)
	eng := engine.NewExact(ds.Vectors, ds.Profile.Metric, ds.Profile.Elem)
	gt := ds.GroundTruth(10)
	sum := 0.0
	for qi, q := range ds.Queries {
		res := ix.SearchFiltered(q, 10, 10, 8, nil, eng, nil)
		got := make([]uint32, len(res))
		for i, n := range res {
			got[i] = n.ID
		}
		sum += dataset.RecallAtK(got, gt[qi])
	}
	if recall := sum / float64(len(ds.Queries)); recall < 0.8 {
		t.Errorf("IVF recall@10 with nprobe=8 = %v, want >= 0.8", recall)
	}
}

func TestSearchNprobeMonotone(t *testing.T) {
	// More probes can only improve (or preserve) recall.
	ds, ix := buildIVF(t, "SPACEV", 800, 25)
	eng := engine.NewExact(ds.Vectors, ds.Profile.Metric, ds.Profile.Elem)
	gt := ds.GroundTruth(10)
	recallAt := func(nprobe int) float64 {
		sum := 0.0
		for qi, q := range ds.Queries {
			res := ix.SearchFiltered(q, 10, 10, nprobe, nil, eng, nil)
			got := make([]uint32, len(res))
			for i, n := range res {
				got[i] = n.ID
			}
			sum += dataset.RecallAtK(got, gt[qi])
		}
		return sum / float64(len(ds.Queries))
	}
	r1, r4, rAll := recallAt(1), recallAt(4), recallAt(25)
	if r4 < r1-0.05 || rAll < r4-0.05 {
		t.Errorf("recall not improving with nprobe: %v %v %v", r1, r4, rAll)
	}
	if rAll < 0.99 {
		t.Errorf("scanning all clusters should be near-exact, got %v", rAll)
	}
}

func TestSearchTrace(t *testing.T) {
	ds, ix := buildIVF(t, "SIFT", 500, 16)
	eng := engine.NewExact(ds.Vectors, ds.Profile.Metric, ds.Profile.Elem)
	var rec trace.Query
	ix.SearchFiltered(ds.Queries[0], 5, 5, 4, nil, eng, &rec)
	if rec.NumHops() < 2 {
		t.Fatalf("expected centroid hop + probe hops, got %d", rec.NumHops())
	}
	if len(rec.Hop(0).Tasks) != 0 {
		t.Error("centroid hop should carry no comparison tasks")
	}
	if rec.TotalTasks() == 0 {
		t.Error("no comparison tasks recorded")
	}
}

func TestSearchClampsNprobe(t *testing.T) {
	ds, ix := buildIVF(t, "SIFT", 100, 8)
	eng := engine.NewExact(ds.Vectors, ds.Profile.Metric, ds.Profile.Elem)
	res := ix.SearchFiltered(ds.Queries[0], 5, 5, 1000, nil, eng, nil)
	if len(res) != 5 {
		t.Errorf("oversized nprobe returned %d results", len(res))
	}
	res = ix.SearchFiltered(ds.Queries[0], 5, 5, 0, nil, eng, nil)
	if len(res) == 0 {
		t.Error("nprobe=0 should clamp to 1 and return results")
	}
}

func TestSearchFilteredExcludes(t *testing.T) {
	ds, ix := buildIVF(t, "SPACEV", 800, 25)
	eng := engine.NewExact(ds.Vectors, ds.Profile.Metric, ds.Profile.Elem)
	// Tombstone the unfiltered top hit of every query; the filtered search
	// must never return it and must still fill k from survivors.
	dead := make(map[uint32]bool)
	for _, q := range ds.Queries {
		res := ix.SearchFiltered(q, 10, 10, 8, nil, eng, nil)
		dead[res[0].ID] = true
	}
	filter := func(id uint32) bool { return !dead[id] }
	for _, q := range ds.Queries {
		res := ix.SearchFiltered(q, 10, 10, 8, filter, eng, nil)
		if len(res) != 10 {
			t.Fatalf("filtered search returned %d results, want 10", len(res))
		}
		for _, n := range res {
			if dead[n.ID] {
				t.Fatalf("filtered search returned tombstoned id %d", n.ID)
			}
		}
	}
	// A nil filter is exactly Search.
	for _, q := range ds.Queries {
		a := ix.SearchFiltered(q, 10, 10, 8, nil, eng, nil)
		b := ix.SearchFiltered(q, 10, 10, 8, nil, eng, nil)
		if len(a) != len(b) {
			t.Fatal("nil filter diverges from Search")
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("nil filter diverges from Search")
			}
		}
	}
}
