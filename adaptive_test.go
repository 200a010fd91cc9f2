// Adaptive mixed precision over a database's own graph and rows: the NDP model
// Database.NewSystem builds, at sim.Config.RecallTarget 0.9. A database
// serves one precision; the model is where the mode runs and is measured
// (FigPrecisionFrontier, internal/core.TestModelGoldens' NDP-ETOpt@0.9 digests).
package ansmet_test

import (
	"context"
	"testing"

	"ansmet"
	"ansmet/internal/core"
	"ansmet/internal/dataset"
	"ansmet/internal/hnsw"
	"ansmet/internal/precision"
	"ansmet/internal/sim"
)

// adaptiveModel builds a database over a GloVe set (inner product, fp32, the
// beam-hostile profile) and, built over it with NewSystem, the NDP model at
// RecallTarget target: the default platform with the target set.
func adaptiveModel(t *testing.T, target float64) (*dataset.Dataset, *ansmet.Database, *sim.Model) {
	t.Helper()
	ds := dataset.Generate(dataset.ProfileByName("GloVe"), 900, 8, 45)
	db, err := ansmet.New(ds.Vectors, ansmet.Options{Metric: ansmet.InnerProduct, Elem: ansmet.Float32, EfConstruction: 60})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.RecallTarget = target
	m, err := sim.NewModel(newModel(t, db), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds, db, m
}

// adaptiveQueries returns the model's adaptive beam at k = 10, ef = 64 and its
// tiered query as a tuner drives it (FigPrecisionFrontier's adaptive arm: the
// tuner's budget, depth bias and margin over the precision map, the uniform
// stage-1 cap out of the way, the outcome fed back), each on a worker engine
// of its own. The rows are fp32, so the queries need no quantizing.
func adaptiveQueries(sys *sim.Model, tn *precision.Tuner) (beam, tiered func(q []float32, dst []hnsw.Neighbor) []hnsw.Neighbor) {
	eng := sys.NewWorkerEngine()
	et := sys.NewWorkerEngine().(*core.ETEngine)
	beam = func(q []float32, dst []hnsw.Neighbor) []hnsw.Neighbor {
		return sys.Index.SearchFilteredInto(q, 10, 64, sys.Cfg.BeamBatch, nil, eng, nil, dst)
	}
	tiered = func(q []float32, dst []hnsw.Neighbor) []hnsw.Neighbor {
		et.SetPrecision(sys.Precision, tn.DepthBias(), tn.Margin())
		nn, st := et.TieredKNNInto(nil, q, 10, core.TieredOpts{Budget: tn.Budget(), MaxBoundLines: -1}, dst)
		tn.Observe(10, st.Pool, st.AtRisk)
		return nn
	}
	return beam, tiered
}

// TestAdaptiveSearchInvariants: a RecallTarget in (0, 1) turns the machinery
// on over a database's graph — a precision map whose static depth never
// fully fetches, a tuner whose fresh budget is at least the target. Its
// answers are full and in (Dist, ID) order, and the adaptive beam's
// recall@10 against the brute force is within 0.05 of the target or of the
// database's host beam's, whichever is lower.
func TestAdaptiveSearchInvariants(t *testing.T) {
	const target = 0.9
	ds, db, sys := adaptiveModel(t, target)
	pm := sys.Precision
	if pm == nil {
		t.Fatal("RecallTarget 0.9 built no precision map")
	}
	if pm.Clusters < 1 || len(pm.PartitionLines) != pm.Clusters || pm.MeanLines() < 1 || pm.MeanLines() > float64(pm.TotalLines()-1) {
		t.Fatalf("precision map: %d clusters, partition lines %v, mean depth %.2f of %d lines", pm.Clusters, pm.PartitionLines, pm.MeanLines(), pm.TotalLines())
	}
	tn := precision.NewTuner(target)
	if tn.Budget() < target {
		t.Fatalf("a fresh tuner's budget %v is below the target %v", tn.Budget(), target)
	}
	beam, tiered := adaptiveQueries(sys, tn)
	wellFormed := func(what string, nn []hnsw.Neighbor) {
		t.Helper()
		if len(nn) != 10 {
			t.Fatalf("%s: %d results, want 10", what, len(nn))
		}
		for i := 1; i < len(nn); i++ {
			if !nn[i-1].Less(nn[i]) {
				t.Fatalf("%s: results %d, %d out of (Dist, ID) order: %v", what, i-1, i, nn)
			}
		}
	}
	var recall [2]float64 // the adaptive beam's, the host beam's
	for _, q := range ds.Queries {
		var truth []uint32
		for _, n := range ds.BruteForceKNN(q, 10) {
			truth = append(truth, n.ID)
		}
		host, err := db.Do(context.Background(), &ansmet.Query{Vector: q, K: 10, Ef: 64, Route: ansmet.RouteHost})
		if err != nil {
			t.Fatal(err)
		}
		adaptive := beam(q, nil)
		wellFormed("adaptive beam", adaptive)
		wellFormed("tuned tiered", tiered(q, nil))
		for i, nn := range [][]hnsw.Neighbor{adaptive, host.Neighbors} {
			var ids []uint32
			for _, n := range nn {
				ids = append(ids, n.ID)
			}
			recall[i] += dataset.RecallAtK(ids, truth) / float64(len(ds.Queries))
		}
	}
	t.Logf("recall@10: adaptive beam %.3f, host beam %.3f", recall[0], recall[1])
	if floor := min(recall[1], target) - 0.05; recall[0] < floor {
		t.Fatalf("the adaptive beam's recall@10 %.3f is below %.3f (host beam %.3f)", recall[0], floor, recall[1])
	}
}

// TestAdaptiveSteadyStateAllocs extends the zero-allocation gate to the
// adaptive mode over a database's graph: the adaptive beam and the tuned
// tiered query (the tuner's feedback is a few atomic CAS loops) heap-allocate
// nothing at steady state.
func TestAdaptiveSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ds, _, sys := adaptiveModel(t, 0.9)
	beam, tiered := adaptiveQueries(sys, precision.NewTuner(0.9))
	for _, arm := range []struct {
		name  string
		query func(q []float32, dst []hnsw.Neighbor) []hnsw.Neighbor
	}{{"beam", beam}, {"tiered", tiered}} {
		var dst []hnsw.Neighbor
		for i := 0; i < 4; i++ {
			dst = arm.query(ds.Queries[i%len(ds.Queries)], dst)
		}
		i := 0
		if avg := testing.AllocsPerRun(100, func() {
			dst = arm.query(ds.Queries[i%len(ds.Queries)], dst)
			i++
		}); avg != 0 {
			t.Fatalf("the adaptive %s query allocates %.1f objects, want 0", arm.name, avg)
		}
	}
}
