package kmeans

import (
	"math"
	"testing"

	"ansmet/internal/dataset"
	"ansmet/internal/vecmath"
)

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, Config{K: 3}); err == nil {
		t.Error("empty dataset should fail")
	}
	vecs := [][]float32{{1, 2}, {3, 4}}
	if _, err := Run(vecs, Config{K: 0}); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := Run(vecs, Config{K: 2, Offset: 1, SubDim: 5}); err == nil {
		t.Error("out-of-range slice should fail")
	}
}

func TestRunClusters(t *testing.T) {
	ds := dataset.Generate(dataset.ProfileByName("DEEP"), 500, 0, 91)
	res, err := Run(ds.Vectors, Config{K: 16, MaxIters: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 16 {
		t.Fatalf("%d centroids", len(res.Centroids))
	}
	// Every vector assigned to its true nearest centroid after convergence.
	for vi, v := range ds.Vectors[:100] {
		best, bestD := 0, math.Inf(1)
		for ci, c := range res.Centroids {
			if d := sqDist(v, c); d < bestD {
				best, bestD = ci, d
			}
		}
		if res.Assign[vi] != best {
			t.Fatalf("vector %d assigned to %d, nearest is %d", vi, res.Assign[vi], best)
		}
	}
	// Clustering must reduce within-cluster spread vs one random centroid.
	within, random := 0.0, 0.0
	for vi, v := range ds.Vectors {
		within += sqDist(v, res.Centroids[res.Assign[vi]])
		random += sqDist(v, res.Centroids[(vi+3)%16])
	}
	if within >= random {
		t.Errorf("within-cluster spread %v >= random %v", within, random)
	}
}

func TestRunSubspace(t *testing.T) {
	ds := dataset.Generate(dataset.ProfileByName("DEEP"), 300, 0, 93)
	res, err := Run(ds.Vectors, Config{K: 8, MaxIters: 8, Seed: 2, Offset: 32, SubDim: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids[0]) != 16 {
		t.Fatalf("subspace centroid dim %d, want 16", len(res.Centroids[0]))
	}
	for vi, v := range ds.Vectors[:50] {
		sub := v[32:48]
		best, bestD := 0, math.Inf(1)
		for ci, c := range res.Centroids {
			if d := sqDist(sub, c); d < bestD {
				best, bestD = ci, d
			}
		}
		if res.Assign[vi] != best {
			t.Fatalf("subspace assignment wrong at %d", vi)
		}
	}
}

// TestETAssignerExact is the paper's kmeans claim: assignment through the
// early-terminating layout returns exactly the nearest centroid while
// fetching fewer lines than a full scan.
func TestETAssignerExact(t *testing.T) {
	ds := dataset.Generate(dataset.ProfileByName("DEEP"), 800, 40, 95)
	res, err := Run(ds.Vectors, Config{K: 64, MaxIters: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewETAssigner(res.Centroids, vecmath.Float32)
	if err != nil {
		t.Fatal(err)
	}
	totalLines, fullLines := 0, 0
	for _, q := range ds.Queries {
		got, gotD, lines := a.Assign(q)
		totalLines += lines
		fullLines += len(res.Centroids) * a.layoutL.LinesPerVector() // every centroid, every line
		best, bestD := 0, math.Inf(1)
		for ci, c := range res.Centroids {
			if d := math.Sqrt(sqDist(q, c)); d < bestD {
				best, bestD = ci, d
			}
		}
		if got != best {
			t.Fatalf("ET assignment %d (d=%v), nearest is %d (d=%v)", got, gotD, best, bestD)
		}
		if math.Abs(gotD-bestD) > 1e-5 {
			t.Fatalf("ET distance %v != %v", gotD, bestD)
		}
	}
	if totalLines >= fullLines {
		t.Errorf("ET assignment saved nothing: %d of %d lines", totalLines, fullLines)
	}
	t.Logf("ET assignment line savings: %.0f%%", 100*(1-float64(totalLines)/float64(fullLines)))
}

func TestETAssignerValidation(t *testing.T) {
	if _, err := NewETAssigner(nil, vecmath.Float32); err == nil {
		t.Error("no centroids should fail")
	}
	if _, err := NewETAssigner([][]float32{{1, 2}, {1}}, vecmath.Float32); err == nil {
		t.Error("ragged centroids should fail")
	}
}
