// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation (§7), plus micro-benchmarks of the core data
// structures. Running
//
//	go test -bench=. -benchmem
//
// regenerates every experiment table on the default workload scale and
// prints it to stdout (once per process, whatever b.N is). Set
// ANSMET_BENCH_QUICK=1 to use the small smoke-test scale.
package ansmet_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ansmet"
	"ansmet/internal/bitplane"
	"ansmet/internal/core"
	"ansmet/internal/dataset"
	"ansmet/internal/dram"
	"ansmet/internal/engine"
	"ansmet/internal/experiments"
	"ansmet/internal/hnsw"
	"ansmet/internal/layout"
	"ansmet/internal/prefixelim"
	"ansmet/internal/sim"
	"ansmet/internal/vecmath"
)

var (
	benchOnce   sync.Once
	benchShared *experiments.Runner
)

func benchRunner() *experiments.Runner {
	benchOnce.Do(func() {
		scale := experiments.DefaultScale()
		if os.Getenv("ANSMET_BENCH_QUICK") != "" {
			scale = experiments.QuickScale()
		}
		benchShared = experiments.NewRunner(scale)
	})
	return benchShared
}

// tablePrinted dedupes table output across b.N iterations.
var tablePrinted sync.Map

func runTable(b *testing.B, name string, fn func() *experiments.Table) {
	b.Helper()
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = fn()
	}
	if _, dup := tablePrinted.LoadOrStore(name, true); !dup {
		tab.Format(os.Stdout)
	}
}

// ---------------------------------------------------------------------------
// One benchmark per paper table/figure (see DESIGN.md per-experiment index).
// ---------------------------------------------------------------------------

func BenchmarkFig01Breakdown(b *testing.B) {
	runTable(b, "fig1", func() *experiments.Table { return benchRunner().Fig01() })
}

func BenchmarkFig03PrefixEntropy(b *testing.B) {
	runTable(b, "fig3", func() *experiments.Table { return benchRunner().Fig03() })
}

func BenchmarkFig06Speedup(b *testing.B) {
	runTable(b, "fig6", func() *experiments.Table { return benchRunner().Fig06([]int{1, 5, 10}) })
}

func BenchmarkFig07Energy(b *testing.B) {
	runTable(b, "fig7", func() *experiments.Table { return benchRunner().Fig07() })
}

func BenchmarkFig08RecallQPS(b *testing.B) {
	runTable(b, "fig8", func() *experiments.Table { return benchRunner().Fig08() })
}

func BenchmarkFig09Polling(b *testing.B) {
	runTable(b, "fig9", func() *experiments.Table { return benchRunner().Fig09() })
}

func BenchmarkFig10FetchUtil(b *testing.B) {
	runTable(b, "fig10", func() *experiments.Table { return benchRunner().Fig10() })
}

func BenchmarkFig11Sampling(b *testing.B) {
	runTable(b, "fig11", func() *experiments.Table { return benchRunner().Fig11() })
}

func BenchmarkFig12Partitioning(b *testing.B) {
	runTable(b, "fig12", func() *experiments.Table { return benchRunner().Fig12() })
}

func BenchmarkTable3Scaling(b *testing.B) {
	runTable(b, "table3", func() *experiments.Table { return benchRunner().Table3() })
}

func BenchmarkTable4Preproc(b *testing.B) {
	runTable(b, "table4", func() *experiments.Table { return benchRunner().Table4() })
}

func BenchmarkTable5Outliers(b *testing.B) {
	runTable(b, "table5", func() *experiments.Table { return benchRunner().Table5() })
}

func BenchmarkReplication(b *testing.B) {
	runTable(b, "replication", func() *experiments.Table { return benchRunner().Replication() })
}

func BenchmarkAblationBeamBatch(b *testing.B) {
	runTable(b, "ablation-batch", func() *experiments.Table { return benchRunner().AblationBeamBatch() })
}

func BenchmarkAblationQuantization(b *testing.B) {
	runTable(b, "ablation-quant", func() *experiments.Table { return benchRunner().AblationQuantization() })
}

func BenchmarkFigTieredFrontier(b *testing.B) {
	runTable(b, "frontier", func() *experiments.Table { return benchRunner().FigTieredFrontier() })
}

func BenchmarkFigPrecisionFrontier(b *testing.B) {
	runTable(b, "precision", func() *experiments.Table { return benchRunner().FigPrecisionFrontier() })
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the core building blocks.
// ---------------------------------------------------------------------------

// benchData builds a small SIFT-profile working set shared by the micro
// benchmarks.
var benchData = sync.OnceValue(func() *dataset.Dataset {
	return dataset.Generate(dataset.ProfileByName("SIFT"), 2000, 16, 99)
})

func BenchmarkElementEncode(b *testing.B) {
	ds := benchData()
	v := ds.Vectors[0]
	var codes []uint32
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		codes = vecmath.Uint8.EncodeVector(v, codes[:0])
	}
	_ = codes
}

func BenchmarkLayoutTransform(b *testing.B) {
	ds := benchData()
	sched := layout.SimpleHeuristicSchedule(vecmath.Uint8)
	l := bitplane.MustLayout(vecmath.Uint8, 128, sched)
	codes := vecmath.Uint8.EncodeVector(ds.Vectors[0], nil)
	buf := make([]byte, l.VectorBytes())
	b.SetBytes(int64(l.VectorBytes()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Transform(codes, buf)
	}
}

func BenchmarkBounderRunET(b *testing.B) {
	ds := benchData()
	sched := layout.SimpleHeuristicSchedule(vecmath.Uint8)
	l := bitplane.MustLayout(vecmath.Uint8, 128, sched)
	bd := bitplane.NewBounder(l, vecmath.L2, 0)
	bd.ResetQuery(ds.Queries[0])
	buf := make([]byte, l.VectorBytes())
	l.Transform(vecmath.Uint8.EncodeVector(ds.Vectors[0], nil), buf)
	th := vecmath.L2.Distance(ds.Queries[0], ds.Vectors[1]) // realistic threshold
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bd.Reset()
		bd.RunET(buf, th)
	}
}

func BenchmarkETEngineCompare(b *testing.B) {
	ds := benchData()
	st, err := core.BuildStore(ds.Rows(),
		layout.SimpleHeuristicSchedule(vecmath.Uint8), prefixelim.Config{})
	if err != nil {
		b.Fatal(err)
	}
	eng := st.NewETEngine(vecmath.L2)
	eng.StartQuery(ds.Queries[0])
	th := vecmath.L2.Distance(ds.Queries[0], ds.Vectors[1])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.Compare(uint32(i%len(ds.Vectors)), th)
	}
}

func BenchmarkHNSWSearch(b *testing.B) {
	ds := benchData()
	ix, err := hnsw.Build(ds.Rows(), vecmath.L2, hnsw.Config{
		M: 8, MaxDegree: 16, EfConstruction: 100, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.NewExact(ds.Vectors, vecmath.L2, vecmath.Uint8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ix.SearchFilteredInto(ds.Queries[i%len(ds.Queries)], 10, 64, 1, nil, eng, nil, nil)
	}
}

// benchDB builds a small default-design database shared by the search hot
// path benchmarks (BenchmarkSearchAllocs, BenchmarkSearchMany).
var benchDB = sync.OnceValue(func() *ansmet.Database {
	ds := benchData()
	db, err := ansmet.New(ds.Vectors, ansmet.Options{
		Metric: ansmet.L2, Elem: ansmet.Uint8, EfConstruction: 100,
	})
	if err != nil {
		panic(err)
	}
	return db
})

// bounderCases are the bounder benchmarks' shapes: SIFT's two lines per
// vector and GIST's sixty, under NDP-ET's simple heuristic schedule.
var bounderCases = []struct {
	name    string
	profile string
	elem    vecmath.ElemType
}{
	{"uint8-128", "SIFT", vecmath.Uint8},
	{"fp32-960", "GIST", vecmath.Float32},
}

// BenchmarkBounderConsumeLine measures the per-line cost of the incremental
// lower-bound update — the innermost loop of every ET comparison — on one
// vector folded over and over: the per-query contribution tables are never
// built and the branch predictor learns the vector. BenchmarkBounderScan is
// the honest per-line cost.
func BenchmarkBounderConsumeLine(b *testing.B) {
	for _, tc := range bounderCases {
		b.Run(tc.name, func(b *testing.B) {
			ds := dataset.Generate(dataset.ProfileByName(tc.profile), 4, 1, 7)
			dim := len(ds.Vectors[0])
			sched := layout.SimpleHeuristicSchedule(tc.elem)
			l := bitplane.MustLayout(tc.elem, dim, sched)
			bd := bitplane.NewBounder(l, vecmath.L2, 0)
			bd.ResetQuery(ds.Queries[0])
			buf := make([]byte, l.VectorBytes())
			l.Transform(tc.elem.EncodeVector(ds.Vectors[0], nil), buf)
			lines := l.LinesPerVector()
			b.SetBytes(int64(l.VectorBytes()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bd.Reset()
				for ln := 0; ln < lines; ln++ {
					bd.ConsumeNext(buf[ln*bitplane.LineBytes : (ln+1)*bitplane.LineBytes])
				}
			}
			b.ReportMetric(float64(b.N*lines)/b.Elapsed().Seconds(), "lines/s")
		})
	}
}

// BenchmarkBounderScan measures the bound as a scan runs it: one op is one
// ResetQuery, then 256 distinct profile vectors, each fully consumed, so the
// lazy contribution tables are built per query as in a real search and no
// single vector's branches are learned. It reports ns/line.
func BenchmarkBounderScan(b *testing.B) {
	const vectors = 256
	for _, tc := range bounderCases {
		b.Run(tc.name, func(b *testing.B) {
			ds := dataset.Generate(dataset.ProfileByName(tc.profile), vectors, 1, 7)
			dim := len(ds.Vectors[0])
			l := bitplane.MustLayout(tc.elem, dim, layout.SimpleHeuristicSchedule(tc.elem))
			bd := bitplane.NewBounder(l, vecmath.L2, 0)
			vb, lines := l.VectorBytes(), l.LinesPerVector()
			data := make([]byte, vectors*vb)
			for i, v := range ds.Vectors {
				l.Transform(tc.elem.EncodeVector(v, nil), data[i*vb:(i+1)*vb])
			}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bd.ResetQuery(ds.Queries[0])
				for v := 0; v < vectors; v++ {
					bd.Reset()
					bd.RunTo(data[v*vb:(v+1)*vb], math.Inf(1), lines)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*vectors*lines), "ns/line")
		})
	}
}

// BenchmarkSearchAllocs measures one steady-state query on the default
// database through the allocation-free SearchInto path, reporting
// allocations per operation (the gated budget: 0 allocs/op).
func BenchmarkSearchAllocs(b *testing.B) {
	db := benchDB()
	ds := benchData()
	var dst []ansmet.Neighbor
	// Warm the pools (first search grows the scratch buffers).
	var err error
	if dst, err = db.SearchInto(ds.Queries[0], 10, 64, dst); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, err = db.SearchInto(ds.Queries[i%len(ds.Queries)], 10, 64, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMutatedDB builds a mutable database, applies a burst of journaled-
// style mutations (adds, deletes, updates, a forced repair) and quiesces,
// so BenchmarkSearchUnderMutation measures the live read path — view
// capture, tombstone filter, slab view pinning — rather than an immutable
// fast path.
var benchMutatedDB = sync.OnceValue(func() *ansmet.Database {
	ds := benchData()
	db, err := ansmet.New(ds.Vectors, ansmet.Options{
		Metric: ansmet.L2, Elem: ansmet.Uint8, EfConstruction: 100,
		Mutable: true, RepairEvery: 16,
	})
	if err != nil {
		panic(err)
	}
	for i := 0; i < 64; i++ {
		switch i % 4 {
		case 0, 1:
			_, err = db.Add(ds.Vectors[i])
		case 2:
			err = db.Delete(uint32(3 * i))
		default:
			_, err = db.Update(uint32(3*i), ds.Vectors[i+1])
		}
		if err != nil {
			panic(err)
		}
	}
	db.Maintain()
	return db
})

// BenchmarkSearchUnderMutation is BenchmarkSearchAllocs on a database that
// has lived: vectors appended, ids tombstoned, the graph repaired.
// TestSearchUnderMutationAllocs pins allocs/op at 0 — mutation support must
// not cost the read hot path a single allocation.
func BenchmarkSearchUnderMutation(b *testing.B) {
	db := benchMutatedDB()
	ds := benchData()
	var dst []ansmet.Neighbor
	var err error
	if dst, err = db.SearchInto(ds.Queries[0], 10, 64, dst); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, err = db.SearchInto(ds.Queries[i%len(ds.Queries)], 10, 64, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchWithDeadline measures the steady-state cost of the
// deadline-aware path (SearchCtxInto with a live context): the cooperative
// cancellation checkpoints must keep the gated budget of 0 allocs/op, and
// the time delta vs BenchmarkSearchAllocs is the whole price of deadline
// support.
func BenchmarkSearchWithDeadline(b *testing.B) {
	db := benchDB()
	ds := benchData()
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	var dst []ansmet.Neighbor
	var err error
	if dst, err = db.SearchCtxInto(ctx, ds.Queries[0], 10, 64, dst); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, err = db.SearchCtxInto(ctx, ds.Queries[i%len(ds.Queries)], 10, 64, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTieredSearch measures one steady-state query through the NDP
// model's tiered bound-first/exact-rerank pipeline at the lossless budget,
// over benchDB, reporting allocations per operation (the gated budget: 0
// allocs/op).
func BenchmarkTieredSearch(b *testing.B) {
	benchModelDo(b, benchData().Queries, true)
}

// benchModel is the NDP model over benchDB, built once with NewSystem: the
// bit-plane store the ndp beam and the tiered route run over.
var benchModel = sync.OnceValue(func() *core.System {
	sys, err := benchDB().NewSystem(core.DefaultSystemConfig(core.NDPETOpt))
	if err != nil {
		panic(err)
	}
	return sys
})

// benchModelDo runs one query per iteration over benchModel, cycling the
// queries: quantize into a reused buffer, then the tiered query at budget 1
// or the ndp beam (k = 10, ef = 64, the model's batch), appending into a
// reused result slice.
func benchModelDo(b *testing.B, queries [][]float32, tiered bool) {
	b.Helper()
	sys := benchModel()
	eng := sys.NewWorkerEngine()
	qq := make([]float32, sys.Dim)
	var dst []ansmet.Neighbor
	query := func(q []float32) {
		for d, x := range q {
			qq[d] = sys.Elem.Quantize(x)
		}
		if tiered {
			dst, _ = eng.(*core.ETEngine).TieredKNNInto(nil, qq, 10, core.TieredOpts{Budget: 1}, dst)
		} else {
			dst = sys.Index.SearchFilteredInto(qq, 10, 64, sys.Cfg.BeamBatch, nil, eng, nil, dst)
		}
	}
	query(queries[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query(queries[i%len(queries)])
	}
}

// BenchmarkRouterOverhead measures Do itself on the explicit host route with
// a live deadline and a stack Query: the execution core plus the routing
// envelope every query pays (in-flight tracking, counters, EWMA cost
// observation). BenchmarkSearchWithDeadline is the same query through the
// SearchCtxInto wrapper, so the two must agree. Budget: 0 allocs/op.
func BenchmarkRouterOverhead(b *testing.B) {
	db := benchDB()
	ds := benchData()
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	benchDo(b, ctx, db, ds.Queries, ansmet.Query{K: 10, Ef: 64, Route: ansmet.RouteHost})
}

// benchDo runs plan once per iteration through Do, cycling the queries and
// reusing the result slice: the steady state of a route.
func benchDo(b *testing.B, ctx context.Context, db *ansmet.Database, queries [][]float32, plan ansmet.Query) {
	b.Helper()
	plan.Vector = queries[0]
	res, err := db.Do(ctx, &plan)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.Vector, plan.Dst = queries[i%len(queries)], res.Neighbors
		if res, err = db.Do(ctx, &plan); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSift20k is the SIFT profile at n = 20 000, built once: 2.56 MB of
// rows, past the L2 that benchData's 2 000 fit in.
var benchSift20k = sync.OnceValue(func() (out struct {
	ds *dataset.Dataset
	db *ansmet.Database
}) {
	out.ds = dataset.Generate(dataset.ProfileByName("SIFT"), 20000, 64, 99)
	var err error
	out.db, err = ansmet.New(out.ds.Vectors, ansmet.Options{
		Metric: ansmet.L2, Elem: ansmet.Uint8, EfConstruction: 100,
	})
	if err != nil {
		panic(err)
	}
	return out
})

// BenchmarkSearchHost measures the same beam query — same graph, same ef,
// same batch, the same answers bit for bit (TestHostEquivalence) — over the
// two compare engines: row-major vectors with the SIMD kernel (host, the
// served beam) and the bit-plane early-termination model (ndp, on the NDP
// model built over the database). The ndp/host ns ratio is what serving the
// host beam saves. The host-20k arm is the host beam where rows miss the L2
// (benchData is L2-resident and cannot show a prefetch), with its per-layer
// split (reportSplit); it is skipped at the quick scale. Budget: 0
// allocs/op on every arm.
func BenchmarkSearchHost(b *testing.B) {
	b.Run("host", func(b *testing.B) {
		benchDo(b, context.Background(), benchDB(), benchData().Queries, ansmet.Query{K: 10, Ef: 64, Route: ansmet.RouteHost})
	})
	b.Run("ndp", func(b *testing.B) { benchModelDo(b, benchData().Queries, false) })
	b.Run("host-20k", func(b *testing.B) {
		if os.Getenv("ANSMET_BENCH_QUICK") != "" {
			b.Skip("n = 20 000 takes seconds to build")
		}
		w := benchSift20k()
		plan := ansmet.Query{K: 10, Ef: 128, Route: ansmet.RouteHost}
		benchDo(b, context.Background(), w.db, w.ds.Queries, plan)
		reportSplit(b, beamLayers, w.db, w.ds.Queries, plan)
	})
}

// BenchmarkExactScan measures the exact route — the SIMD scan of every row,
// the k best kept in place on the caller's Dst — on the default database and
// on one that has lived (tombstones skipped, appended rows re-pinned); and,
// skipped at the quick scale, at the shapes of two served workloads: GloVe
// at n = 10 000 (fp32, dim 100, inner product — what a recall_target 1
// request scans) and GIST at n = 3 000 (fp32, dim 960, L2), each with its
// per-layer split (reportSplit: the float32 screen, the float64 kernel and
// the loop) and the rows per query that survive the screen
// ("survivors/query", counted in one more pass over the queries through
// the scan's screen hook, outside the timing).
// BenchmarkTieredSearch is the same answer through the model's bound
// machinery.
// Budget: 0 allocs/op.
func BenchmarkExactScan(b *testing.B) {
	for _, arm := range []struct {
		name string
		db   *ansmet.Database
	}{{"immutable", benchDB()}, {"mutated", benchMutatedDB()}} {
		b.Run(arm.name, func(b *testing.B) {
			benchDo(b, context.Background(), arm.db, benchData().Queries, ansmet.Query{K: 10, Route: ansmet.RouteExact})
		})
	}
	for _, arm := range []struct {
		name string
		w    func() benchWorkload
	}{{"glove-10k", benchGlove10k}, {"gist-3k", benchGist3k}} {
		b.Run(arm.name, func(b *testing.B) {
			if os.Getenv("ANSMET_BENCH_QUICK") != "" {
				b.Skip("a served workload's shape takes seconds to build")
			}
			w := arm.w()
			plan := ansmet.Query{K: 10, Route: ansmet.RouteExact}
			benchDo(b, context.Background(), w.db, w.ds.Queries, plan)
			reportSplit(b, scanLayers, w.db, w.ds.Queries, plan)
			survivors := 0
			ansmet.SetScanScreenHook(func(_, s int) { survivors += s })
			defer ansmet.SetScanScreenHook(nil)
			for _, q := range w.ds.Queries {
				plan.Vector = q
				if _, err := w.db.Do(context.Background(), &plan); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(survivors)/float64(len(w.ds.Queries)), "survivors/query")
		})
	}
}

// benchWorkload is a dataset and the database built over it.
type benchWorkload struct {
	ds *dataset.Dataset
	db *ansmet.Database
}

// buildBenchWorkload generates n vectors of the profile and builds a
// database over them at the served build options.
func buildBenchWorkload(profile string, n int) benchWorkload {
	p := dataset.ProfileByName(profile)
	w := benchWorkload{ds: dataset.Generate(p, n, 32, 7)}
	var err error
	w.db, err = ansmet.New(w.ds.Vectors, ansmet.Options{Metric: p.Metric, Elem: p.Elem, EfConstruction: 100, Seed: 7})
	if err != nil {
		panic(err)
	}
	return w
}

var (
	benchGlove10k = sync.OnceValue(func() benchWorkload { return buildBenchWorkload("GloVe", 10000) })
	benchGist3k   = sync.OnceValue(func() benchWorkload { return buildBenchWorkload("GIST", 3000) })
)

// BenchmarkPastCache is the past-cache arm: n = 160 000 rows, past every
// cache level — GIST-profile fp32 (dim 960, 614 MB of rows) and SIFT u8
// (dim 128, 20 MB) — through brute force (one Exact.Compare, so one
// one-row kernel call, per row), the exact scan and the host beam at three
// ef, each arm reporting recall@10 against the brute-force answer and each
// host-beam arm its per-layer split (reportSplit). It is skipped unless
// ANSMET_BENCH_BIG is set: a cold run generates the set and builds its
// graph (on a 2-vCPU Xeon, SIFT's took 21–44 s and GIST's 134 s at 1.6 GB
// peak RSS, since it holds its 614 MB of rows twice while it builds). The
// built database is saved under the OS temp directory, keyed by the
// profile, the seed and a hash of the test binary — the code that builds
// it — so a rerun of one binary loads it. The set-up logs how long the
// build (or load) took and the process's peak RSS.
func BenchmarkPastCache(b *testing.B) {
	if os.Getenv("ANSMET_BENCH_BIG") == "" {
		b.Skip("set ANSMET_BENCH_BIG to build (or load) the n = 160 000 sets")
	}
	const k = 10
	for _, profile := range []string{"SIFT", "GIST"} {
		b.Run(profile, func(b *testing.B) {
			db, queries := pastCacheDB(b, profile)
			ex := engine.NewExactOver(ansmet.SlabOf(db), dataset.ProfileByName(profile).Metric)
			heap := hnsw.Heap{Max: true}
			brute := func(q []float32) []hnsw.Neighbor {
				ex.StartQuery(q)
				heap.Reset()
				for id := range uint32(ex.Len()) {
					nb := hnsw.Neighbor{ID: id, Dist: ex.Compare(id, math.Inf(1)).Dist}
					if heap.Len() < k {
						heap.Push(nb)
					} else if nb.Less(heap.Top()) {
						heap.ReplaceTop(nb)
					}
				}
				return heap.Sorted(nil)
			}
			truth := make([][]uint32, len(queries))
			for i, q := range queries {
				truth[i] = neighborIDs(brute(q))
			}
			b.Run("brute", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					brute(queries[i%len(queries)])
				}
				b.ReportMetric(1, "recall@10")
			})
			type arm struct {
				name string
				plan ansmet.Query
			}
			arms := []arm{{"exact", ansmet.Query{K: k, Route: ansmet.RouteExact}}}
			for _, ef := range []int{64, 128, 256} {
				arms = append(arms, arm{fmt.Sprintf("host-ef%d", ef), ansmet.Query{K: k, Ef: ef, Route: ansmet.RouteHost}})
			}
			for _, a := range arms {
				b.Run(a.name, func(b *testing.B) {
					recall := 0.0
					for i, q := range queries {
						plan := a.plan
						plan.Vector = q
						res, err := db.Do(context.Background(), &plan)
						if err != nil {
							b.Fatal(err)
						}
						recall += dataset.RecallAtK(neighborIDs(res.Neighbors), truth[i])
					}
					benchDo(b, context.Background(), db, queries, a.plan)
					if a.plan.Route == ansmet.RouteHost {
						reportSplit(b, beamLayers, db, queries, a.plan)
					}
					b.ReportMetric(recall/float64(len(queries)), "recall@10")
				})
			}
		})
	}
}

// pastCacheDB returns the past-cache arm's database for the profile, and
// its 32 queries, loading the cached snapshot when one exists and building
// and saving it when not.
func pastCacheDB(b *testing.B, profile string) (*ansmet.Database, [][]float32) {
	const n, nq, seed = 160000, 32, 11
	p := dataset.ProfileByName(profile)
	exe, err := os.Executable()
	if err != nil {
		b.Fatal(err)
	}
	code, err := os.ReadFile(exe)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(os.TempDir(), fmt.Sprintf("ansmet-pastcache-%s-%d-%x.db", profile, seed, sha256.Sum256(code)))
	// The queries are drawn from their own stream: n = 0 gives the same ones.
	queries := dataset.Generate(p, 0, nq, seed).Queries
	start := time.Now()
	if db, err := ansmet.LoadFile(path, nil); err == nil {
		b.Logf("%s: loaded %s in %.1f s; peak RSS %s", profile, path, time.Since(start).Seconds(), peakRSS())
		return db, queries
	}
	ds := dataset.Generate(p, n, nq, seed)
	db, err := ansmet.New(ds.Vectors, ansmet.Options{Metric: p.Metric, Elem: p.Elem, EfConstruction: 100, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("%s: generated and built n = %d in %.1f s; peak RSS %s", profile, n, time.Since(start).Seconds(), peakRSS())
	if err := db.SaveFile(path + ".tmp"); err != nil {
		b.Fatal(err)
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		b.Fatal(err)
	}
	return db, queries
}

// neighborIDs is the ids of an answer, in order.
func neighborIDs(nn []hnsw.Neighbor) []uint32 {
	ids := make([]uint32, len(nn))
	for i, nb := range nn {
		ids[i] = nb.ID
	}
	return ids
}

// peakRSS is the process's resident-set high-water mark as Linux reports it
// (VmHWM), or "unknown" where there is no /proc.
func peakRSS() string {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// BenchmarkSearchMany measures parallel batch-search throughput (DoMany on
// the host beam) across all cores.
func BenchmarkSearchMany(b *testing.B) {
	db := benchDB()
	ds := benchData()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.DoMany(context.Background(), ds.Queries, &ansmet.Query{K: 10, Ef: 64, Route: ansmet.RouteHost}, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*len(ds.Queries))/b.Elapsed().Seconds(), "queries/s")
}

func BenchmarkDRAMRead(b *testing.B) {
	m := dram.New(dram.DefaultConfig())
	t := 0.0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := dram.Addr{Rank: i % 32, Bank: i % 32, Row: int64(i % 64)}
		t = m.Read(t, a, i%2 == 0)
	}
	if math.IsNaN(t) {
		b.Fatal("impossible")
	}
}

func BenchmarkLayoutOptimize(b *testing.B) {
	ds := benchData()
	sample := ds.Vectors[:100]
	an, err := layout.Analyze(sample, vecmath.Uint8, vecmath.L2, layout.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		an.BestParams(true)
	}
}

func BenchmarkTimingReplay(b *testing.B) {
	ds := benchData()
	ix, err := hnsw.Build(ds.Rows(), vecmath.L2, hnsw.Config{
		M: 8, MaxDegree: 16, EfConstruction: 80, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	sys, err := core.NewSystem(ds.Rows(), vecmath.L2, ix,
		core.DefaultSystemConfig(core.NDPETOpt))
	if err != nil {
		b.Fatal(err)
	}
	m, err := sim.NewModel(sys, sim.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	run := m.RunHNSW(ds.Queries, 10, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sim.Run(m.Timing, run.Traces)
	}
	b.ReportMetric(run.Report.QPS(), "simQPS")
	_ = fmt.Sprint()
}
