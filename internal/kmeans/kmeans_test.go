package kmeans

import (
	"math"
	"testing"

	"ansmet/internal/dataset"
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
