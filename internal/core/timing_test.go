package core_test

// The timing model over core.System: sim.Model's runs over every design are
// pinned here, beside the view they are built from (the test IDs and the
// kernel-level CI filters that name them stay those of this package).

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"ansmet/internal/core"
	"ansmet/internal/dataset"
	"ansmet/internal/hnsw"
	"ansmet/internal/ivf"
	"ansmet/internal/layout"
	"ansmet/internal/rows"
	"ansmet/internal/sim"
	"ansmet/internal/stats"
	"ansmet/internal/trace"
	"ansmet/internal/vecmath"
)

// newModel builds the view of cfg over the dataset's rows and puts the
// platform mcfg around it.
func newModel(t *testing.T, ds *dataset.Dataset, ix *hnsw.Index, cfg core.SystemConfig, mcfg sim.Config) *sim.Model {
	t.Helper()
	sys, err := core.NewSystem(ds.Rows(), ds.Profile.Metric, ix, cfg)
	if err != nil {
		t.Fatalf("%s/%v: %v", ds.Profile.Name, cfg.Design, err)
	}
	m, err := sim.NewModel(sys, mcfg)
	if err != nil {
		t.Fatalf("%s/%v: %v", ds.Profile.Name, cfg.Design, err)
	}
	return m
}

// hashRun folds everything a run produced into h: every result, every hop's
// shape, every recorded task and every field of the timing report, floats by
// their bits.
func hashRun(h hash.Hash, run *sim.RunResult) {
	f := func(x float64) uint64 { return math.Float64bits(x) }
	for _, res := range run.Results {
		fmt.Fprintf(h, "r%d", len(res))
		for _, nb := range res {
			fmt.Fprintf(h, " %d:%x", nb.ID, f(nb.Dist))
		}
	}
	for _, q := range run.Traces {
		fmt.Fprintf(h, "\nq%d", q.NumHops())
		for i := 0; i < q.NumHops(); i++ {
			hop := q.Hop(i)
			fmt.Fprintf(h, "\nh%d %d %d", hop.Level, hop.HostOps, len(hop.Tasks))
			for _, tk := range hop.Tasks {
				r := tk.Result
				fmt.Fprintf(h, " %d %x %x %t %d %d %d", tk.ID, f(tk.Threshold), f(r.Dist),
					r.Accepted, r.Lines, r.LinesLocal, r.BackupLines)
			}
		}
	}
	rep := run.Report
	fmt.Fprintf(h, "\nlat")
	for _, x := range rep.QueryLatencyNs {
		fmt.Fprintf(h, " %x", f(x))
	}
	fmt.Fprintf(h, "\n%x %x %x %x %x %d %d %x %x %+v %v %d %x",
		f(rep.MakespanNs), f(rep.TraversalNs), f(rep.OffloadNs), f(rep.DistCompNs), f(rep.CollectNs),
		rep.EffectualLines, rep.IneffectualLines, f(rep.CoreBusyNs), f(rep.NDPBusyNs),
		rep.Mem, rep.RankTaskLines, rep.PollCount, f(rep.CoreWaitNs))
}

// modelGoldens are sha256 digests of hashRun over RunHNSW, RunHNSWParallel
// (3 workers) and RunIVF, in that order on one model, recorded at commit
// c3b3fc7 (the parent of the PR that gave the model one engine factory and
// one run loop). A digest that moves means a trace, an answer or a timing
// report moved.
var modelGoldens = map[string]string{
	"SIFT/CPU-Base":       "f7519dedc45c7057d9383111f779b5f8e581cfa6b76ddae070b9ecfccd4da96c",
	"SIFT/CPU-ET":         "dac7ccbb190cd103f302192afa3339f62e8310bc7a1cf79e2e7049bf513f21cc",
	"SIFT/CPU-ETOpt":      "0f092747e568aa64437457153b67ae225d2b8f5c23e03029e43a1c41e4511829",
	"SIFT/NDP-Base":       "1dd067e91c84d0c8f12a870fcb0c37af84ba9968d0a96cd3be9bfa81db4e2229",
	"SIFT/NDP-DimET":      "a09b9f666e47038b5b976b9e3fd018ddbd09173d7b57e0feb1f25441648ff24f",
	"SIFT/NDP-BitET":      "211c44259a1bde530be84dee66ac378a90b8a3a629e7d82c107e9598ae6f9ad9",
	"SIFT/NDP-ET":         "f669854da252d527971f00b9f0a6ab90f76971347d48e12ca173aa30de7c6270",
	"SIFT/NDP-ET+Dual":    "f669854da252d527971f00b9f0a6ab90f76971347d48e12ca173aa30de7c6270",
	"SIFT/NDP-ETOpt":      "5d881bf6956f6fe6860df1940146b0d3c52ffd8f6f1c6d75b85cbc6ce952ef34",
	"SIFT/NDP-ETOpt@0.9":  "e33eaa2d5cb8aa25a6db1ec8d228858c2abcc11f3991834d4d2534a4441a723f",
	"GloVe/CPU-Base":      "b90a764a635c6011929532c22ac77a8dc187fc4a279d449ce3eac768e441743f",
	"GloVe/CPU-ET":        "0d412efc08263139cd92b5df7932ef8a8dc3ab752cece2cc21fc6ef825aa36d6",
	"GloVe/CPU-ETOpt":     "324b1cf292b45bbb4aa159e103c502e29e6596ca8c0e4dfd1f3126623db92ee8",
	"GloVe/NDP-Base":      "8381b3385bff19424c2169209b431014d6c5845c281b418569b34333b6396eec",
	"GloVe/NDP-DimET":     "8381b3385bff19424c2169209b431014d6c5845c281b418569b34333b6396eec",
	"GloVe/NDP-BitET":     "b4af0c10dc3aba7b28b6d8e60ba75fd6fd3b877fc1c1b9fb640cadab80c0c0c5",
	"GloVe/NDP-ET":        "2c93f6b462a6fe24ea103388b49d502003d54e721e8a281b9b50433ab45c9b5a",
	"GloVe/NDP-ET+Dual":   "53a466cabab6b5f5875d961ad9d6798cee923af17ab8328140161ce5aae74dfe",
	"GloVe/NDP-ETOpt":     "53a466cabab6b5f5875d961ad9d6798cee923af17ab8328140161ce5aae74dfe",
	"GloVe/NDP-ETOpt@0.9": "e12e6fc411d111091062551732998f9a3264818ede491cb267bac1c1cb933e35",
}

// modelDigest is the sha256 of hashRun over RunHNSW, RunHNSWParallel (3
// workers) and RunIVF on m, in that order.
func modelDigest(m *sim.Model, ds *dataset.Dataset, vx *ivf.Index) string {
	h := sha256.New()
	hashRun(h, m.RunHNSW(ds.Queries, 10, 40))
	hashRun(h, m.RunHNSWParallel(ds.Queries, 10, 40, 3))
	hashRun(h, m.RunIVF(vx, ds.Queries, 10, 10, 4))
	return hex.EncodeToString(h.Sum(nil))
}

// goldenPopulation is the dataset, graph and IVF index the goldens run over.
func goldenPopulation(t *testing.T, pop string) (*dataset.Dataset, *hnsw.Index, *ivf.Index) {
	t.Helper()
	p := dataset.ProfileByName(pop)
	ds := dataset.Generate(p, 400, 8, 101)
	ix, err := hnsw.Build(ds.Rows(), p.Metric, hnsw.Config{M: 8, MaxDegree: 16, EfConstruction: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	vx, err := ivf.Build(ds.Vectors, p.Metric, ivf.Config{NumClusters: 16, MaxIters: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return ds, ix, vx
}

func TestModelGoldens(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64; another architecture may fuse or round differently")
	}
	for _, pop := range []string{"SIFT", "GloVe"} {
		ds, ix, vx := goldenPopulation(t, pop)
		check := func(name string, cfg core.SystemConfig, mcfg sim.Config) {
			cfg.SampleSize = 60
			got := modelDigest(newModel(t, ds, ix, cfg, mcfg), ds, vx)
			if want, ok := modelGoldens[name]; !ok {
				t.Errorf("no golden for %q: got %s", name, got)
			} else if got != want {
				t.Errorf("%s: digest %s, recorded %s", name, got, want)
			}
		}
		for _, d := range core.AllDesigns {
			check(pop+"/"+d.String(), core.DefaultSystemConfig(d), sim.DefaultConfig())
		}
		// The pre-calibration adaptive-precision wiring of the beam engines.
		adaptive := sim.DefaultConfig()
		adaptive.RecallTarget = 0.9
		check(pop+"/NDP-ETOpt@0.9", core.DefaultSystemConfig(core.NDPETOpt), adaptive)
	}
}

// TestConcurrentRunsMatchSerial runs the goldens' sequence from several
// goroutines at once on one model, as the parallel experiment pipeline may
// on a cached one: a run only reads its Model, so every concurrent digest
// equals the serial one (and -race sees no race).
func TestConcurrentRunsMatchSerial(t *testing.T) {
	ds, ix, vx := goldenPopulation(t, "SIFT")
	adaptive := sim.DefaultConfig()
	adaptive.RecallTarget = 0.9
	for _, c := range []struct {
		design core.Design
		mcfg   sim.Config
	}{{core.NDPETOpt, adaptive}, {core.CPUET, sim.DefaultConfig()}} {
		cfg := core.DefaultSystemConfig(c.design)
		cfg.SampleSize = 60
		m := newModel(t, ds, ix, cfg, c.mcfg)
		want := modelDigest(m, ds, vx)
		got := make([]string, 4)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = modelDigest(m, ds, vx)
			}()
		}
		wg.Wait()
		for i, g := range got {
			if g != want {
				t.Errorf("%v: concurrent run %d digest %s, serial %s", c.design, i, g, want)
			}
		}
	}
}

func TestNewSystemAllDesigns(t *testing.T) {
	p := dataset.ProfileByName("SIFT")
	ds := dataset.Generate(p, 600, 8, 17)
	ix, err := hnsw.Build(ds.Rows(), p.Metric, hnsw.Config{M: 8, MaxDegree: 16, EfConstruction: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gt := ds.GroundTruth(10)
	for _, d := range core.AllDesigns {
		cfg := core.DefaultSystemConfig(d)
		cfg.SampleSize = 50
		sys := newModel(t, ds, ix, cfg, sim.DefaultConfig())
		run := sys.RunHNSW(ds.Queries, 10, 60)
		if len(run.Results) != len(ds.Queries) {
			t.Fatalf("%v: missing results", d)
		}
		if run.Report.MakespanNs <= 0 {
			t.Fatalf("%v: no timing", d)
		}
		sum := 0.0
		for qi, ids := range run.IDs() {
			sum += dataset.RecallAtK(ids, gt[qi])
		}
		if recall := sum / float64(len(gt)); recall < 0.8 {
			t.Errorf("%v: recall %v < 0.8", d, recall)
		}
		if d.UsesNDP() && run.Report.OffloadNs == 0 {
			t.Errorf("%v: NDP design without offload time", d)
		}
		if sys.PreprocessSeconds < 0 {
			t.Errorf("%v: negative preprocess time", d)
		}
	}
	buildsOnTinySets(t)
}

// buildsOnTinySets: every design builds over every non-empty slab on a
// default configuration. For every design × element type × metric, over 1,
// 2, 3 and 101 vectors (below and past the 100-vector sample), random and
// all-equal, the build succeeds, and its beam and, on an ET design, its
// tiered query return all min(2, n) vectors: the models a caller builds
// over a database. One vector has no pair to sample, so a sampling design
// stores it under NDP-ET's schedule with no analysis, and the timing model
// runs over it.
func buildsOnTinySets(t *testing.T) {
	rng := stats.NewRNG(5)
	random, constant := make([][]float32, 101), make([][]float32, 101)
	for i := range random {
		random[i], constant[i] = make([]float32, 8), []float32{3, 3, 3, 3, 3, 3, 3, 3}
		for d := range random[i] {
			random[i][d] = float32(rng.Intn(100)) // every element type holds it
		}
	}
	for _, elem := range []vecmath.ElemType{vecmath.Uint8, vecmath.Int8, vecmath.Float16, vecmath.BFloat16, vecmath.Float32} {
		for _, metric := range []vecmath.Metric{vecmath.L2, vecmath.InnerProduct, vecmath.Cosine} {
			for _, n := range []int{1, 2, 3, 101} {
				k := min(2, n)
				for _, vs := range [][][]float32{random, constant} {
					rs, err := rows.Pack(vs[:n], elem)
					if err != nil {
						t.Fatal(err)
					}
					ix, err := hnsw.Build(rs, metric, hnsw.Config{M: 16, MaxDegree: 16, EfConstruction: 20, Seed: 3})
					if err != nil {
						t.Fatal(err)
					}
					for _, d := range core.AllDesigns {
						label := fmt.Sprintf("%v/%v/%v/n=%d", d, elem, metric, n)
						cfg := core.DefaultSystemConfig(d)
						cfg.Seed = 3
						sys, err := core.NewSystem(rs, metric, ix, cfg)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						eng := sys.NewWorkerEngine()
						beam := ix.SearchFilteredInto(vs[0], k, 2, cfg.BeamBatch, nil, eng, nil, nil)
						et, ok := eng.(*core.ETEngine)
						tiered := beam
						if ok {
							tiered, _ = et.TieredKNNInto(nil, vs[0], k, core.TieredOpts{Budget: 1}, nil)
						}
						if len(beam) != k || len(tiered) != k || ok != d.UsesET() {
							t.Fatalf("%s: %d beam and %d tiered results of %d, engine %T", label, len(beam), len(tiered), k, eng)
						}
						if n > 1 {
							continue
						}
						if sys.Analysis != nil || sys.Params != (layout.Params{}) || (ok && sys.Store.Prefix.PrefixLen != 0) {
							t.Fatalf("%s: one vector sampled: analysis %v, params %+v", label, sys.Analysis, sys.Params)
						}
						m, err := sim.NewModel(sys, sim.DefaultConfig())
						if err != nil {
							t.Fatalf("%s: model: %v", label, err)
						}
						if run := m.RunHNSW(vs[:1], k, 2); len(run.Results) != 1 || len(run.Results[0]) != 1 || run.Report.MakespanNs <= 0 {
							t.Fatalf("%s: one-vector run %+v", label, run.Results)
						}
					}
				}
			}
		}
	}
}

func TestSpeedupShapes(t *testing.T) {
	// The headline shapes (paper Fig. 6): NDP-Base well ahead of CPU-Base
	// on bandwidth-heavy profiles, and the full ANSMET (NDP-ETOpt) ahead of
	// NDP-Base. GIST splits 4-way under hybrid-1kB partitioning, so its ET
	// gain is muted by local-only termination; DEEP (384 B vectors, whole
	// in one rank) shows the full sequential ET benefit.
	check := func(profile string, n, nq int, minNDP, minOpt float64) {
		p := dataset.ProfileByName(profile)
		ds := dataset.Generate(p, n, nq, 19)
		ix, err := hnsw.Build(ds.Rows(), p.Metric, hnsw.Config{M: 8, MaxDegree: 16, EfConstruction: 50, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		qps := func(d core.Design) float64 {
			cfg := core.DefaultSystemConfig(d)
			cfg.SampleSize = 50
			sys := newModel(t, ds, ix, cfg, sim.DefaultConfig())
			run := sys.RunHNSW(ds.Queries, 10, 64)
			// Replay a sustained stream (the paper's throughput regime);
			// a handful of queries alone is latency-bound and hides the
			// bandwidth effects under test.
			var traces []*trace.Query
			for len(traces) < 128 {
				traces = append(traces, run.Traces...)
			}
			return sim.Run(sys.Timing, traces).QPS()
		}
		cpu := qps(core.CPUBase)
		ndp := qps(core.NDPBase)
		opt := qps(core.NDPETOpt)
		t.Logf("%s QPS: cpu=%.0f ndp=%.0f etopt=%.0f (ndp %.2fx, etopt %.2fx over ndp)",
			profile, cpu, ndp, opt, ndp/cpu, opt/ndp)
		if ndp < minNDP*cpu {
			t.Errorf("%s: NDP speedup %.2fx below %.1fx", profile, ndp/cpu, minNDP)
		}
		if opt < minOpt*ndp {
			t.Errorf("%s: ETOpt speedup over NDP %.2fx below %.2fx", profile, opt/ndp, minOpt)
		}
	}
	check("GIST", 500, 32, 3, 1.03)
	check("DEEP", 2000, 64, 3, 1.05)
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
	sys := newModel(t, ds, hx, core.DefaultSystemConfig(core.NDPETOpt), sim.DefaultConfig())
	run := sys.RunIVF(vx, ds.Queries, 10, 10, 4)
	if run.Report.QPS() <= 0 || run.Report.Mem.NDPBytes == 0 {
		t.Error("IVF timing run produced no activity")
	}
	// IVF hops carry large cluster batches; ensure some ET happened.
	full := sys.Timing.Part.LinesPerVector()
	et := 0
	for _, q := range run.Traces {
		for _, task := range q.Tasks() {
			if !task.Result.Accepted && task.Result.Lines < full {
				et++
			}
		}
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
	cfg := core.DefaultSystemConfig(core.NDPETOpt)
	// A permissive outlier budget creates a longer prefix and more outliers.
	cfg.LayoutOpts.OutlierBudget = 0.01
	sys := newModel(t, ds, hx, cfg, sim.DefaultConfig())
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

// TestRunHNSWParallelMatchesSerial pins the parallel runner's determinism
// contract: fanning the functional searches over worker-private engines must
// reproduce the serial RunHNSW bit for bit — same results, same traces, and
// therefore the same timing report from the single ordered replay.
func TestRunHNSWParallelMatchesSerial(t *testing.T) {
	p := dataset.ProfileByName("SIFT")
	ds := dataset.Generate(p, 600, 24, 17)
	ix, err := hnsw.Build(ds.Rows(), p.Metric, hnsw.Config{M: 8, MaxDegree: 16, EfConstruction: 80, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []core.Design{core.CPUBase, core.NDPBase, core.NDPETOpt} {
		cfg := core.DefaultSystemConfig(d)
		cfg.SampleSize = 60
		sys := newModel(t, ds, ix, cfg, sim.DefaultConfig())
		serial := sys.RunHNSW(ds.Queries, 10, 40)
		par := sys.RunHNSWParallel(ds.Queries, 10, 40, 4)
		if !reflect.DeepEqual(serial.Results, par.Results) {
			t.Errorf("%v: parallel results diverge from serial", d)
		}
		if !reflect.DeepEqual(serial.Traces, par.Traces) {
			t.Errorf("%v: parallel traces diverge from serial", d)
		}
		if !reflect.DeepEqual(serial.Report, par.Report) {
			t.Errorf("%v: parallel report diverges from serial:\n got: %+v\nwant: %+v",
				d, par.Report, serial.Report)
		}
	}
}
