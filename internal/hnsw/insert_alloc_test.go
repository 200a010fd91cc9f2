//go:build !race

// Not built under the race detector: the race runtime drops sync.Pool items
// at random, so a pooled search context — and its visited set — is rebuilt
// on inserts that would reuse it, and the bytes that costs grow with the
// index by construction.

package hnsw

import (
	"runtime"
	"testing"

	"ansmet/internal/dataset"
	"ansmet/internal/rows"
)

// TestInsertAllocIndependentOfSize: what an Insert allocates must not grow
// with the number of nodes already indexed. The insert takes its scratch
// for one more node than the last one did, and a visited set that grew to
// exactly that many words was reallocated — and zeroed — on every insert:
// 4 bytes per indexed node per write.
func TestInsertAllocIndependentOfSize(t *testing.T) {
	p := dataset.ProfileByName("SIFT")
	perInsert := func(n int) float64 {
		ds := dataset.Generate(p, n+150, 1, 42)
		ix, err := Build(rows.MustPack(ds.Vectors[:n], p.Elem), p.Metric,
			Config{M: 4, MaxDegree: 8, EfConstruction: 10, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		ix.EnableMutation()
		for _, v := range ds.Vectors[n : n+50] { // past the first append's slice growth
			appendInsert(t, ix, v)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, v := range ds.Vectors[n+50:] {
			appendInsert(t, ix, v)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / 100
	}
	// Neither window crosses a multiple of chunkNodes, where a chunk of
	// adjacency, of rows and of the visited set is legitimately allocated.
	small, large := perInsert(2000), perInsert(32000)
	t.Logf("bytes per Insert: %.0f at n=2000, %.0f at n=32000", small, large)
	if large > 1.25*small {
		t.Errorf("an Insert allocates %.0f B at n=32000 against %.0f B at n=2000: it grows with the index", large, small)
	}
}
