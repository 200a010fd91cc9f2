package hnsw

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"ansmet/internal/dataset"
	"ansmet/internal/engine"
)

// beamBench is the SIFT profile at n = 20 000 (2.56 MB of u8 rows, past the
// L2) under a graph built as a database builds it, once per process.
var beamBench = sync.OnceValue(func() (out struct {
	ds *dataset.Dataset
	ix *Index
}) {
	out.ds = dataset.Generate(dataset.ProfileByName("SIFT"), 20000, 64, 99)
	var err error
	out.ix, err = Build(out.ds.Rows(), out.ds.Profile.Metric, Config{M: 16, MaxDegree: 16, EfConstruction: 100, Seed: 1})
	if err != nil {
		panic(err)
	}
	return out
})

// BenchmarkBeam is the base-layer beam alone — descent, frontier, visited
// set, hops over the host SIMD engine — at the delayed-synchronization
// widths the model and the server use (1 and 8) and two beam widths, k =
// 10 into a Dst of capacity 10. Budget: 0 allocs/op on every arm.
func BenchmarkBeam(b *testing.B) {
	w := beamBench()
	for _, batch := range []int{1, 8} {
		for _, ef := range []int{64, 128} {
			b.Run(fmt.Sprintf("batch=%d/ef=%d", batch, ef), func(b *testing.B) {
				eng := engine.NewExactOver(w.ix.rows, w.ds.Profile.Metric)
				dst := make([]Neighbor, 0, 10)
				for _, q := range w.ds.Queries[:4] {
					dst = w.ix.SearchFilteredInto(q, 10, ef, batch, nil, eng, nil, dst)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dst = w.ix.SearchFilteredInto(w.ds.Queries[i%len(w.ds.Queries)], 10, ef, batch, nil, eng, nil, dst)
				}
			})
		}
	}
}

// BenchmarkBuild is Build over each benchmark workload's set-up slice —
// the first 1/8 of its population (bench/main.go), at the database's
// construction parameters with the benchmark's EfConstruction of 100
// (bench/workload.go): SIFT u8 at 2 500 (sift20k_beam) and 1 250
// (sift10k_mixed), GIST f32 at 375 (gist3k_beam), GloVe f32 inner product
// at 1 250 (glove10k_tiered). It reports ns/insert and allocs/insert.
func BenchmarkBuild(b *testing.B) {
	for _, arm := range []struct {
		profile string
		n       int
	}{{"SIFT", 2500}, {"GIST", 375}, {"GloVe", 1250}, {"SIFT", 1250}} {
		b.Run(fmt.Sprintf("%s-%d", arm.profile, arm.n), func(b *testing.B) {
			p := dataset.ProfileByName(arm.profile)
			rs := dataset.Generate(p, arm.n, 1, 7).Rows()
			cfg := Config{M: 16, MaxDegree: 16, EfConstruction: 100, Seed: 1}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Build(rs, p.Metric, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			inserts := float64(b.N * arm.n)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/inserts, "ns/insert")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/inserts, "allocs/insert")
		})
	}
}
