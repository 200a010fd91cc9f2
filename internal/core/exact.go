package core

import (
	"math"

	"ansmet/internal/hnsw"
)

// ExactKNN performs an exact (non-approximate) k-nearest-neighbor scan of
// the whole store, using early termination with the running k-th-best
// distance as the threshold. Because the ET bound is provably conservative,
// the result is identical to a brute-force scan — this realizes the paper's
// observation that the scheme "can even be used in accurate search
// algorithms like kmeans and kNN" (§4.1). The returned line count shows the
// access savings relative to fullLines = Len()×SlotLines(). It is the
// reference the tiered pipeline at budget 1 and the served exact scan are
// pinned to (by tests: the served scan is the root package's own loop).
//
// The ids go in order, tombstoned ones skipped, each compared at its
// fixed precision — whatever adaptive mode SetPrecision installed for the
// beam — against the live threshold: +Inf while the heap is short, its top
// after. A comparison is accepted at a tie with the threshold, so an
// accepted row replaces the top only when it is Less: at equal distance the
// smaller id stays. The answer is in ascending (Dist, ID) order.
func (e *ETEngine) ExactKNN(q []float32, k int) (nn []hnsw.Neighbor, linesFetched int) {
	e.StartQuery(q)
	n := uint32(e.store.Len())
	heap := hnsw.Heap{Max: true}
	heap.Init(make([]hnsw.Neighbor, 0, min(k, int(n))))
	for id := uint32(0); id < n; id++ {
		if e.tomb != nil && e.tomb.IsDeleted(id) {
			continue
		}
		threshold := math.Inf(1)
		if heap.Len() >= k {
			threshold = heap.Top().Dist
		}
		r := e.compareExact(id, threshold)
		linesFetched += r.TotalLines()
		if nb := (hnsw.Neighbor{ID: id, Dist: r.Dist}); heap.Len() < k {
			heap.Push(nb)
		} else if r.Accepted && nb.Less(heap.Top()) {
			heap.ReplaceTop(nb)
		}
	}
	return heap.Sorted(nil), linesFetched
}
