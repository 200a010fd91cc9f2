package hnsw

import (
	"fmt"
	"sync"
	"testing"

	"ansmet/internal/dataset"
	"ansmet/internal/engine"
)

// beamBench is the SIFT profile at n = 20 000 (10 MB of u8 rows, past the
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
