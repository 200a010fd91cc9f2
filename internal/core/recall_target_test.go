package core_test

// The recall-target knob of the NDP model (sim.Config.RecallTarget): its
// exactness endpoints, its recall floor and its steady state, and the two
// benchmarks that price it.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"ansmet/internal/core"
	"ansmet/internal/dataset"
	"ansmet/internal/hnsw"
	"ansmet/internal/precision"
	"ansmet/internal/sim"
)

// recallTargetSystems builds one graph over ds's rows, one NDP-ETOpt system
// over it seeded with seed, and around that one model per recall target.
func recallTargetSystems(ds *dataset.Dataset, efc int, seed uint64, targets ...float64) ([]*sim.Model, error) {
	rs := ds.Rows()
	ix, err := hnsw.Build(rs, ds.Profile.Metric, hnsw.Config{M: 16, MaxDegree: 16, EfConstruction: efc, Seed: seed})
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultSystemConfig(core.NDPETOpt)
	cfg.Seed = seed
	sys, err := core.NewSystem(rs, ds.Profile.Metric, ix, cfg)
	if err != nil {
		return nil, err
	}
	out := make([]*sim.Model, len(targets))
	for i, target := range targets {
		mcfg := sim.DefaultConfig()
		mcfg.RecallTarget = target
		if out[i], err = sim.NewModel(sys, mcfg); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// beamOver is one system's beam search at k and ef on a worker engine of its
// own — the ndp route's traversal.
func beamOver(sys *sim.Model, k, ef int) func(q []float32, f func(uint32) bool, dst []hnsw.Neighbor) []hnsw.Neighbor {
	eng := sys.NewWorkerEngine()
	return func(q []float32, f func(uint32) bool, dst []hnsw.Neighbor) []hnsw.Neighbor {
		return sys.Index.SearchFilteredInto(q, k, ef, sys.Cfg.BeamBatch, f, eng, nil, dst)
	}
}

// tunedTiered is one adaptive tiered query as a tuner drives it
// (FigPrecisionFrontier's adaptive arm): the tuner's budget, depth bias and
// margin over the system's precision map, the uniform stage-1 cap out of the
// way, and the outcome fed back into the tuner.
func tunedTiered(sys *sim.Model, et *core.ETEngine, tn *precision.Tuner, q []float32, k int, dst []hnsw.Neighbor) ([]hnsw.Neighbor, core.TieredStats) {
	et.SetPrecision(sys.Precision, tn.DepthBias(), tn.Margin())
	nn, st := et.TieredKNNInto(nil, q, k, core.TieredOpts{Budget: tn.Budget(), MaxBoundLines: -1}, dst)
	tn.Observe(k, st.Pool, st.AtRisk)
	return nn, st
}

// tunedTieredGoldens are sha256 digests of the tuned adaptive tiered query
// (tunedTiered) at NDP-ETOpt@0.9 over the goldens' populations, recorded at
// b22a4fa, where the depth map, bias and margin were still TieredOpts fields.
var tunedTieredGoldens = map[string]string{
	"SIFT":  "f4629f345100df8b225971b70d0a883570f27c2447a4dbfdbb136d8161762059",
	"GloVe": "fa632c35138fdea5393b90064052e5f710763336630d5817e6b27643b2465e68",
	"GIST":  "3753f8a173ab36eb26c2bf077202187d8a72677c8472c83b59336ebeb05229ef",
}

// TestTunedTieredGoldens pins the tuned adaptive tiered query: per query, in
// four passes over the queries so the tuner moves, its ids, its distances by
// their bits and its whole TieredStats, Escalated and AtRisk included. Each
// store holds outlier-encoded vectors, so the static depth is also read
// rescaled onto the outlier encoding's line count. At the default outlier
// budget SIFT has a few; GloVe's components are sign-mixed, so no prefix is
// common to all but 0.1% of them, and GIST's 400 vectors hold no outlier.
// At a budget of half the elements a prefix is common, and every vector of
// those two is outlier-encoded: on GIST, in one line more than the bit-plane
// layout has, with escalations.
func TestTunedTieredGoldens(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64; another architecture may fuse or round differently")
	}
	for pop, outlierBudget := range map[string]float64{"SIFT": 0.001, "GloVe": 0.5, "GIST": 0.5} {
		ds, ix, _ := goldenPopulation(t, pop)
		cfg := core.DefaultSystemConfig(core.NDPETOpt)
		cfg.SampleSize = 60
		cfg.LayoutOpts.OutlierBudget = outlierBudget
		mcfg := sim.DefaultConfig()
		mcfg.RecallTarget = 0.9
		m := newModel(t, ds, ix, cfg, mcfg)
		if m.Store.NumOutliers() == 0 {
			t.Fatalf("%s: no outlier-encoded vectors", pop)
		}
		et := m.NewWorkerEngine().(*core.ETEngine)
		tn := precision.NewTuner(mcfg.RecallTarget)
		h := sha256.New()
		var dst []hnsw.Neighbor
		escalated := 0
		for pass := 0; pass < 4; pass++ {
			for _, q := range ds.Queries {
				var st core.TieredStats
				dst, st = tunedTiered(m, et, tn, q, 10, dst)
				for _, nb := range dst {
					fmt.Fprintf(h, "%d:%x ", nb.ID, math.Float64bits(nb.Dist))
				}
				fmt.Fprintf(h, "%+v\n", st)
				escalated += st.Escalated
			}
		}
		t.Logf("%s: %d of %d lines, %d outliers, %d escalations, tuner budget %v, depth bias %d", pop,
			m.Store.Prefix.OutlierLines(), m.Store.Layout.LinesPerVector(), m.Store.NumOutliers(), escalated, tn.Budget(), tn.DepthBias())
		if got, want := hex.EncodeToString(h.Sum(nil)), tunedTieredGoldens[pop]; got != want {
			t.Errorf("%s: digest %s, recorded %s", pop, got, want)
		}
	}
}

func sameNeighborBits(t *testing.T, label string, a, b []hnsw.Neighbor) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d results against %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			t.Fatalf("%s: result %d is %+v against %+v", label, i, a[i], b[i])
		}
	}
}

// TestSystemRecallTarget is the knob's contract on the model, over SIFT-u8
// and GloVe-IP, each row of the table one recall target against a fixed
// system over the same graph:
//
//   - at 0 and 1 a system builds no precision map, and its beam answers
//     (SearchFilteredInto over NewWorkerEngine), filtered and not, and its
//     tiered answers at budget 1 are bitwise the fixed system's, tiered stats
//     included;
//   - at 0.9 the beam's recall@10 against the brute force, over the same
//     queries filtered and not, is within 0.05 of min(0.9, the fixed beam's),
//     and the beam search and the tuned tiered query allocate nothing at
//     steady state.
func TestSystemRecallTarget(t *testing.T) {
	const k, ef = 10, 64
	odd := func(id uint32) bool { return id%2 == 1 }
	filters := []func(uint32) bool{nil, odd}
	for _, pop := range []string{"SIFT", "GloVe"} {
		ds := dataset.Generate(dataset.ProfileByName(pop), 1000, 20, 5)
		targets := []float64{0, 1, 0.9}
		systems, err := recallTargetSystems(ds, 60, 7, append([]float64{0}, targets...)...)
		if err != nil {
			t.Fatal(err)
		}
		fixed := systems[0]
		fixedBeam := beamOver(fixed, k, ef)
		fixedET := fixed.NewWorkerEngine().(*core.ETEngine)
		for i, target := range targets {
			sys := systems[i+1]
			name := fmt.Sprintf("%s/target=%v", pop, target)
			adaptive := target > 0 && target < 1
			if (sys.Precision != nil) != adaptive {
				t.Fatalf("%s: precision map built %v, want %v", name, sys.Precision != nil, adaptive)
			}
			sysBeam := beamOver(sys, k, ef)
			et := sys.NewWorkerEngine().(*core.ETEngine)
			if !adaptive {
				for qi, q := range ds.Queries {
					for _, f := range filters {
						sameNeighborBits(t, fmt.Sprintf("%s q%d filter=%v beam", name, qi, f != nil), sysBeam(q, f, nil), fixedBeam(q, f, nil))
					}
					got, gst := et.TieredKNNInto(nil, q, k, core.TieredOpts{Budget: 1}, nil)
					want, wst := fixedET.TieredKNNInto(nil, q, k, core.TieredOpts{Budget: 1}, nil)
					sameNeighborBits(t, fmt.Sprintf("%s q%d tiered", name, qi), got, want)
					if gst != wst {
						t.Fatalf("%s q%d: tiered stats %+v, the fixed system's %+v", name, qi, gst, wst)
					}
				}
				continue
			}

			var recall [2]float64 // the adaptive beam's, the fixed beam's
			for _, f := range filters {
				for _, q := range ds.Queries {
					var truth []uint32
					for _, n := range ds.BruteForceKNN(q, len(ds.Vectors)) {
						if len(truth) < k && (f == nil || f(n.ID)) {
							truth = append(truth, n.ID)
						}
					}
					for j, search := range []func([]float32, func(uint32) bool, []hnsw.Neighbor) []hnsw.Neighbor{sysBeam, fixedBeam} {
						var ids []uint32
						for _, n := range search(q, f, nil) {
							ids = append(ids, n.ID)
						}
						recall[j] += dataset.RecallAtK(ids, truth) / float64(len(filters)*len(ds.Queries))
					}
				}
			}
			t.Logf("%s: recall@10 of the adaptive beam %.3f, of the fixed beam %.3f", name, recall[0], recall[1])
			if floor := min(recall[1], target) - 0.05; recall[0] < floor {
				t.Fatalf("%s: the adaptive beam's recall@10 %.3f is below %.3f (fixed beam %.3f)", name, recall[0], floor, recall[1])
			}

			if raceEnabled {
				continue // allocation counts are not meaningful under the race detector
			}
			var dst []hnsw.Neighbor
			tn := precision.NewTuner(target)
			for arm, query := range map[string]func(q []float32){
				"beam":   func(q []float32) { dst = sysBeam(q, nil, dst) },
				"tiered": func(q []float32) { dst, _ = tunedTiered(sys, et, tn, q, k, dst) },
			} {
				for _, q := range ds.Queries[:4] {
					query(q)
				}
				qi := 0
				if avg := testing.AllocsPerRun(100, func() {
					query(ds.Queries[qi%len(ds.Queries)])
					qi++
				}); avg != 0 {
					t.Fatalf("%s: the adaptive %s query allocates %.1f objects, want 0", name, arm, avg)
				}
			}
		}
	}
}

// benchAdaptive is a beam-hostile working set (the GloVe profile: inner
// product, high-entropy fp32 planes, 7 lines/vector) and two systems over
// one graph of it: a fixed-depth one and one at RecallTarget 0.9. Shared by
// the two benchmarks below.
var benchAdaptive = sync.OnceValues(func() (*dataset.Dataset, []*sim.Model) {
	ds := dataset.Generate(dataset.ProfileByName("GloVe"), 2000, 16, 99)
	systems, err := recallTargetSystems(ds, 100, 1, 0, 0.9)
	if err != nil {
		panic(err)
	}
	return ds, systems
})

// BenchmarkAdaptivePrecision measures one steady-state beam query over the
// NDP model on the beam-hostile profile, fixed full-depth refinement against
// the adaptive per-partition schedule (RecallTarget 0.9). The fixed/adaptive
// ns ratio is the matched-recall speedup EXPERIMENTS.md's micro-benchmark
// history records; FigPrecisionFrontier verifies the recall match in lines.
// Budget: 0 allocs/op on both arms.
func BenchmarkAdaptivePrecision(b *testing.B) {
	ds, systems := benchAdaptive()
	for i, arm := range []string{"fixed", "adaptive"} {
		b.Run(arm, func(b *testing.B) {
			search := beamOver(systems[i], 10, 64)
			dst := search(ds.Queries[0], nil, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				dst = search(ds.Queries[n%len(ds.Queries)], nil, dst)
			}
		})
	}
}

// BenchmarkRecallTargetOverhead measures the steady-state tiered query on the
// same workload with the recall-target machinery off (fixed: budget 1) and
// on (adaptive: the tuner's budget, the per-partition depth schedule with
// escalation, and the post-query calibration feedback). The fixed/adaptive
// delta is the whole price of the knob on the tiered path — mostly the
// deeper stage-1 schedule the depth map picks, which FigPrecisionFrontier
// shows buying a far smaller exact re-rank pool. Budget: 0 allocs/op on both
// arms.
func BenchmarkRecallTargetOverhead(b *testing.B) {
	ds, systems := benchAdaptive()
	for i, arm := range []string{"fixed", "adaptive"} {
		b.Run(arm, func(b *testing.B) {
			sys := systems[i]
			et := sys.NewWorkerEngine().(*core.ETEngine)
			var dst []hnsw.Neighbor
			query := func(q []float32) { dst, _ = et.TieredKNNInto(nil, q, 10, core.TieredOpts{Budget: 1}, dst) }
			if sys.Precision != nil {
				tn := precision.NewTuner(sys.Timing.RecallTarget)
				query = func(q []float32) { dst, _ = tunedTiered(sys, et, tn, q, 10, dst) }
			}
			query(ds.Queries[0])
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				query(ds.Queries[n%len(ds.Queries)])
			}
		})
	}
}
