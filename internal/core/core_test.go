package core

import (
	"math"
	"testing"

	"ansmet/internal/bitplane"
	"ansmet/internal/dataset"
	"ansmet/internal/engine"
	"ansmet/internal/hnsw"
	"ansmet/internal/layout"
	"ansmet/internal/prefixelim"
	"ansmet/internal/rows"
	"ansmet/internal/stats"
	"ansmet/internal/vecmath"
)

func TestDesignProperties(t *testing.T) {
	if len(AllDesigns) != 9 {
		t.Fatalf("%d designs, want 9", len(AllDesigns))
	}
	if CPUBase.UsesNDP() || !NDPBase.UsesNDP() || !NDPETOpt.UsesNDP() {
		t.Error("UsesNDP wrong")
	}
	if CPUBase.UsesET() || NDPBase.UsesET() || !NDPDimET.UsesET() || !NDPETOpt.UsesET() {
		t.Error("UsesET wrong")
	}
	if !NDPETOpt.UsesPrefixElim() || NDPETDual.UsesPrefixElim() {
		t.Error("UsesPrefixElim wrong")
	}
	if NDPETOpt.String() != "NDP-ETOpt" || CPUBase.String() != "CPU-Base" {
		t.Error("design names wrong")
	}
}

func TestStoreExactWhenFullyFetched(t *testing.T) {
	p := dataset.ProfileByName("SPACEV")
	ds := dataset.Generate(p, 300, 10, 3)
	sched := layout.SimpleHeuristicSchedule(p.Elem)
	st, err := BuildStore(ds.Rows(), sched, prefixelim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng := st.NewETEngine(p.Metric)
	for _, q := range ds.Queries {
		eng.StartQuery(q)
		for id := uint32(0); id < 50; id++ {
			r := eng.Compare(id, math.Inf(1))
			want := p.Metric.Distance(q, ds.Vectors[id])
			if !r.Accepted || math.Abs(r.Dist-want) > 1e-6 {
				t.Fatalf("id %d: %+v, want dist %v", id, r, want)
			}
		}
	}
}

// TestNoAccuracyLoss is the paper's central guarantee: every ET design
// returns exactly the same search results as the exact engine.
func TestNoAccuracyLoss(t *testing.T) {
	for _, name := range []string{"SIFT", "SPACEV", "DEEP", "GloVe"} {
		p := dataset.ProfileByName(name)
		ds := dataset.Generate(p, 800, 10, 11)
		ix, err := hnsw.Build(ds.Rows(), p.Metric, hnsw.Config{M: 8, MaxDegree: 16, EfConstruction: 100, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		exact := engine.NewExact(ds.Vectors, p.Metric, p.Elem)
		var want [][]hnsw.Neighbor
		for _, q := range ds.Queries {
			want = append(want, ix.SearchFilteredInto(q, 10, 50, 1, nil, exact, nil, nil))
		}
		for _, d := range []Design{NDPDimET, NDPBitET, NDPET, NDPETDual, NDPETOpt} {
			cfg := DefaultSystemConfig(d)
			cfg.SampleSize = 60
			sys, err := NewSystem(ds.Rows(), p.Metric, ix, cfg)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, d, err)
			}
			eng := sys.NewWorkerEngine()
			for qi, q := range ds.Queries {
				got := ix.SearchFilteredInto(q, 10, 50, 1, nil, eng, nil, nil)
				if len(got) != len(want[qi]) {
					t.Fatalf("%s/%v query %d: %d results, want %d",
						name, d, qi, len(got), len(want[qi]))
				}
				for j := range got {
					if got[j].ID != want[qi][j].ID ||
						math.Abs(got[j].Dist-want[qi][j].Dist) > 1e-6 {
						t.Fatalf("%s/%v query %d result %d: %+v != %+v",
							name, d, qi, j, got[j], want[qi][j])
					}
				}
			}
		}
	}
}

func TestETSavesLines(t *testing.T) {
	// ET engines must fetch fewer lines than a full fetch on rejected
	// comparisons.
	p := dataset.ProfileByName("GIST")
	ds := dataset.Generate(p, 300, 5, 5)
	sched := layout.SimpleHeuristicSchedule(p.Elem)
	st, err := BuildStore(ds.Rows(), sched, prefixelim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng := st.NewETEngine(p.Metric)
	full := st.Layout.LinesPerVector()
	saved := 0
	total := 0
	for _, q := range ds.Queries {
		eng.StartQuery(q)
		// A tight threshold: distance to the nearest neighbor.
		nn := ds.BruteForceKNN(q, 1)
		th := nn[0].Dist * 1.05
		for id := uint32(0); id < 200; id++ {
			r := eng.Compare(id, th)
			total += full
			saved += full - r.Lines
			if !r.Accepted && r.Lines == full {
				// Fully fetched rejection is allowed but should be rare on
				// GIST-like data; nothing to assert per-item.
				continue
			}
		}
	}
	frac := float64(saved) / float64(total)
	if frac < 0.3 {
		t.Errorf("ET saved only %.1f%% of lines on GIST-like data", frac*100)
	}
	t.Logf("ET line savings: %.1f%%", frac*100)
}

func TestDimETUselessForIPFloat(t *testing.T) {
	// Partial-dimension ET cannot bound IP distances over fp32: no
	// comparison may terminate early (paper: NDP-DimET fails on GloVe).
	p := dataset.ProfileByName("GloVe")
	ds := dataset.Generate(p, 200, 3, 7)
	st, err := BuildStore(ds.Rows(), bitplane.PlainSchedule(p.Elem), prefixelim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng := st.NewETEngine(p.Metric)
	full := st.Layout.LinesPerVector()
	for _, q := range ds.Queries {
		eng.StartQuery(q)
		for id := uint32(0); id < 100; id++ {
			r := eng.Compare(id, -0.5) // harsh threshold
			if r.Lines != full {
				t.Fatalf("DimET terminated early on IP data: %+v", r)
			}
		}
	}
}

func TestPrefixElimStoreOutliers(t *testing.T) {
	p := dataset.ProfileByName("SPACEV")
	ds := dataset.Generate(p, 1000, 10, 13)
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
	if sys.Store.SpaceSavedFraction() <= 0 {
		t.Errorf("prefix elimination saved no space: %v", sys.Store.SpaceSavedFraction())
	}
	if sys.Store.NumOutliers() == 0 {
		t.Log("note: no outliers in this draw (allowed but unexpected)")
	}
	// Outlier comparisons that land in-bound must pay backup lines.
	eng := sys.Store.NewETEngine(p.Metric)
	eng.StartQuery(ds.Queries[0])
	backupSeen := false
	for id := uint32(0); id < uint32(sys.Store.Len()); id++ {
		if !sys.Store.isOutlier[id] {
			continue
		}
		r := eng.Compare(id, math.Inf(1))
		if !r.Outlier {
			t.Fatal("outlier flag lost")
		}
		if r.Accepted {
			if r.BackupLines != sys.Store.BackupLines() {
				t.Fatalf("accepted outlier without backup re-check: %+v", r)
			}
			backupSeen = true
			want := p.Metric.Distance(ds.Queries[0], ds.Vectors[id])
			if math.Abs(r.Dist-want) > 1e-6 {
				t.Fatalf("outlier recheck distance %v != %v", r.Dist, want)
			}
		}
	}
	if sys.Store.NumOutliers() > 0 && !backupSeen {
		t.Log("note: no outlier accepted under infinite threshold?")
	}
}

func TestSystemErrors(t *testing.T) {
	if _, err := NewSystem(nil, vecmath.L2, nil, DefaultSystemConfig(CPUBase)); err == nil {
		t.Error("empty dataset should fail")
	}
	bad := DefaultSystemConfig(Design(99))
	vecs := [][]float32{{1, 2}}
	if _, err := NewSystem(rows.MustPack(vecs, vecmath.Uint8), vecmath.L2, nil, bad); err == nil {
		t.Error("unknown design should fail")
	}
}

func TestStoreValidation(t *testing.T) {
	if _, err := BuildStore(nil, bitplane.PlainSchedule(vecmath.Uint8), prefixelim.Config{}); err == nil {
		t.Error("empty store should fail")
	}
	// Schedule/prefix mismatch.
	vecs := rows.MustPack([][]float32{{1, 2, 3, 4}}, vecmath.Uint8)
	sched := bitplane.UniformSchedule(vecmath.Uint8, 2, 2)
	if _, err := BuildStore(vecs, sched, prefixelim.Config{}); err == nil {
		t.Error("prefix schedule without elimination config should fail")
	}
	pc := prefixelim.Config{Elem: vecmath.Uint8, Dim: 4, PrefixLen: 3, PrefixVal: 0}
	if _, err := BuildStore(vecs, sched, pc); err == nil {
		t.Error("prefix length mismatch should fail")
	}
}

func TestEnginePerWorkerIndependence(t *testing.T) {
	// Two engines over the same store must not interfere.
	p := dataset.ProfileByName("SIFT")
	ds := dataset.Generate(p, 100, 2, 29)
	st, err := BuildStore(ds.Rows(), layout.SimpleHeuristicSchedule(p.Elem), prefixelim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e1 := st.NewETEngine(p.Metric)
	e2 := st.NewETEngine(p.Metric)
	e1.StartQuery(ds.Queries[0])
	e2.StartQuery(ds.Queries[1])
	r1a := e1.Compare(5, math.Inf(1))
	_ = e2.Compare(5, math.Inf(1))
	r1b := e1.Compare(5, math.Inf(1))
	if r1a.Dist != r1b.Dist {
		t.Error("engines interfere through shared state")
	}
	_ = stats.NewRNG // keep import when build tags change
}
