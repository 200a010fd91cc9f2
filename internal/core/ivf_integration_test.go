package core

import (
	"math"
	"testing"

	"ansmet/internal/dataset"
	"ansmet/internal/engine"
	"ansmet/internal/hnsw"
	"ansmet/internal/ivf"
	"ansmet/internal/trace"
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
			want := vx.Search(q, 10, 10, 6, exact, nil)
			got := vx.Search(q, 10, 10, 6, eng, nil)
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

// TestRunIVFTiming exercises the IVF path through the timing simulator.
func TestRunIVFTiming(t *testing.T) {
	p := dataset.ProfileByName("GIST")
	ds := dataset.Generate(p, 300, 4, 43)
	hx, err := hnsw.Build(ds.Rows(), p.Metric, hnsw.Config{M: 8, MaxDegree: 16, EfConstruction: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	vx, err := ivf.Build(ds.Vectors, p.Metric, ivf.Config{NumClusters: 12, MaxIters: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(ds.Rows(), p.Metric, hx, DefaultSystemConfig(NDPETOpt))
	if err != nil {
		t.Fatal(err)
	}
	run := sys.RunIVF(vx, ds.Queries, 10, 10, 4)
	if run.Report.QPS() <= 0 || run.Report.Mem.NDPBytes == 0 {
		t.Error("IVF timing run produced no activity")
	}
	// IVF hops carry large cluster batches; ensure some ET happened.
	var tr trace.Query
	_ = tr
	full := sys.Part.LinesPerVector()
	et := 0
	for _, q := range run.Traces {
		et += q.EarlyTerminated(full)
	}
	if et == 0 {
		t.Error("no early terminations on the IVF path")
	}
}

// TestBackupLinesReachTimingModel verifies that outlier backup re-checks
// are charged in the replay (they fetch extra rows from the task's rank).
func TestBackupLinesReachTimingModel(t *testing.T) {
	p := dataset.ProfileByName("SPACEV")
	ds := dataset.Generate(p, 1500, 12, 47)
	hx, err := hnsw.Build(ds.Rows(), p.Metric, hnsw.Config{M: 8, MaxDegree: 16, EfConstruction: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSystemConfig(NDPETOpt)
	// A permissive outlier budget creates a longer prefix and more outliers.
	cfg.LayoutOpts.OutlierBudget = 0.01
	sys, err := NewSystem(ds.Rows(), p.Metric, hx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Store.NumOutliers() == 0 {
		t.Skip("no outlier vectors in this draw")
	}
	run := sys.RunHNSW(ds.Queries, 10, 60)
	backups := 0
	for _, q := range run.Traces {
		for _, task := range q.Tasks() {
			backups += task.Result.BackupLines
		}
	}
	if backups == 0 {
		t.Skip("no outlier accepted in this workload")
	}
	// The replay must have fetched at least the primary+backup lines.
	if run.Report.Mem.Reads == 0 {
		t.Fatal("no reads recorded")
	}
}
