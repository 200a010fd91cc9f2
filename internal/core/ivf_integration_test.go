package core

import (
	"math"
	"testing"

	"ansmet/internal/dataset"
	"ansmet/internal/engine"
	"ansmet/internal/hnsw"
	"ansmet/internal/ivf"
)

// TestIVFNoAccuracyLoss extends the central guarantee to the cluster-based
// index: early termination applies to IVF exactly as to HNSW (§4.1 "early
// termination also applies to other indexes including cluster-based ones").
func TestIVFNoAccuracyLoss(t *testing.T) {
	p := dataset.ProfileByName("SIFT")
	ds := dataset.Generate(p, 900, 8, 41)
	vx, err := ivf.Build(ds.Vectors, p.Metric, ivf.Config{NumClusters: 24, MaxIters: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	exact := engine.NewExact(ds.Vectors, p.Metric, p.Elem)
	hx, err := hnsw.Build(ds.Rows(), p.Metric, hnsw.Config{M: 8, MaxDegree: 16, EfConstruction: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []Design{NDPET, NDPETOpt} {
		cfg := DefaultSystemConfig(d)
		cfg.SampleSize = 60
		sys, err := NewSystem(ds.Rows(), p.Metric, hx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng := sys.NewWorkerEngine()
		for _, q := range ds.Queries {
			want := vx.SearchFiltered(q, 10, 10, 6, nil, exact, nil)
			got := vx.SearchFiltered(q, 10, 10, 6, nil, eng, nil)
			if len(got) != len(want) {
				t.Fatalf("%v: %d results, want %d", d, len(got), len(want))
			}
			for j := range got {
				if got[j].ID != want[j].ID || math.Abs(got[j].Dist-want[j].Dist) > 1e-6 {
					t.Fatalf("%v: result %d diverges: %+v vs %+v", d, j, got[j], want[j])
				}
			}
		}
	}
}
