package core

import (
	"math"
	"math/bits"
	"sync"

	"ansmet/internal/engine"
	"ansmet/internal/hnsw"
)

// knnCancelStride is the cooperative-cancellation checkpoint stride of the
// exact scan: the done channel is polled once every knnCancelStride
// comparisons, bounding the post-cancel overrun while keeping the
// steady-state cost to a counter test.
const knnCancelStride = 256

// exactScanTestHook, when non-nil, runs at every phase-2 cancellation
// checkpoint of a done-instrumented scan; tests use it to fire done at a
// precise id (deterministic mid-scan cancellation). Only consulted when
// done != nil, so the uncancellable scan never pays for it.
var exactScanTestHook func(id uint32)

// ScanScreenHook, when non-nil, is told of every screened run of the exact
// scan how many of its rows are live and how many of those survived the
// screen. Tests and benchmarks count with it; the scan checks it once per
// screened run.
var ScanScreenHook func(live, survivors int)

// ExactKNN performs an exact (non-approximate) k-nearest-neighbor scan of
// the whole store, using early termination with the running k-th-best
// distance as the threshold. Because the ET bound is provably conservative,
// the result is identical to a brute-force scan — this realizes the paper's
// observation that the scheme "can even be used in accurate search
// algorithms like kmeans and kNN" (§4.1). The returned line count shows the
// access savings relative to fullLines = Len()×SlotLines(). It is the
// reference the serving exact route (ScanKNN) and the tiered pipeline at
// budget 1 are pinned to; see scanKNN for the cancellation contract.
func (e *ETEngine) ExactKNN(done <-chan struct{}, q []float32, k int) (nn []hnsw.Neighbor, linesFetched int, cancelled bool) {
	e.StartQuery(q)
	return scanKNN(done, fixedPrecision{e}, uint32(e.store.Len()), e.tomb, k, nil)
}

// ScanKNN is the exact scan over the slab's rows: the same loop as
// ExactKNN with the full-precision SIMD distance as the compare, so the
// answers are bitwise ExactKNN's (a fully-fetched bound is the exact
// distance and an early-termination reject is sound) while every scanned
// row counts a full fetch. tomb, when non-nil, is the deletion bitmap;
// results are appended into dst[:0], and with a reused dst of capacity k
// the scan allocates nothing (its run buffers are pooled).
func ScanKNN(done <-chan struct{}, rows *engine.Exact, tomb *TombSet, q []float32, k int, dst []hnsw.Neighbor) (nn []hnsw.Neighbor, linesFetched int, cancelled bool) {
	rows.StartQuery(q)
	return scanKNN(done, rows, uint32(rows.Len()), tomb, k, dst)
}

// fixedPrecision is an ETEngine seen through its fixed-precision compare
// alone: the exact-result contract, whatever adaptive mode SetPrecision
// installed for the beam.
type fixedPrecision struct{ *ETEngine }

func (f fixedPrecision) Compare(id uint32, threshold float64) engine.Result {
	return f.compareExact(id, threshold)
}

// scanRun is how many ids the run scan takes per RunDistances call: a
// divisor of knnCancelStride, so every checkpoint falls on a run's first id,
// and of rows.ChunkRows, so a run never straddles a slab chunk. It is also
// the width of a tombstone word, so a run's marks are one load.
const scanRun = 64

// scanRuns pools the run scan's distance buffer: a RunDistances call
// through the kernel's func value would move a buffer on the scan's stack
// to the heap.
var scanRuns = sync.Pool{New: func() any { return new([scanRun]float64) }}

// scanKNN is the one exact k-NN scan loop: ids [0, n) in order (the caller
// has started the query), tombstoned ids skipped, the k best kept in a
// max-heap built in place on dst[:0] and returned in ascending (Dist, ID)
// order.
//
// The ids go in aligned runs of scanRun. The exact engine (ScanKNN) takes
// each run's distances in one RunDistances call, tombstoned rows included,
// and the heap pass that follows skips the tombstoned ids. Once the heap is
// full, on rows with a screen (Exact.StartScreen), it takes each run's
// survivor bits instead (RunSurvivors, against the run-start top) and the
// distance of each live survivor alone, in id order against the live top:
// the screen clears only rows proven past the run-start top, and the top
// only falls, so a cleared row is one the heap would not have admitted.
// Either way a full fetch is counted for each live row. Any other engine
// (ExactKNN's early-terminating one) compares id by id at the live threshold — +Inf while the heap is
// short, its top after — so its line counts are those of a per-id scan. A
// comparison is accepted at a tie with the threshold, so an accepted row
// replaces the top only when it is Less: at equal distance the smaller id
// stays. The ids come in ascending order, so every id the heap holds is
// smaller than the one at hand, and Less against the top is a plain
// distance compare: the run pass keeps the top's distance in a local and a
// row that is not admitted costs that one compare. Both give the one
// answer, ExactKNN's.
//
// done is a cooperative-cancellation channel; nil disables every check.
// It is polled before the first comparison and at every id that is a
// multiple of knnCancelStride once the heap is full. When done fires, the
// scan stops there and returns the best neighbors over the prefix scanned
// so far with cancelled=true — a usable approximate answer, but NOT the
// exact one; callers must not treat a cancelled result as the brute-force
// ground truth.
func scanKNN(done <-chan struct{}, eng engine.Engine, n uint32, tomb *TombSet, k int, dst []hnsw.Neighbor) (nn []hnsw.Neighbor, linesFetched int, cancelled bool) {
	if done != nil {
		select {
		case <-done:
			return dst[:0], 0, true
		default:
		}
	}
	if want := min(k, int(n)); cap(dst) < want {
		dst = make([]hnsw.Neighbor, 0, want)
	}
	heap := hnsw.Heap{Max: true}
	heap.Init(dst[:0])
	ex, _ := eng.(*engine.Exact)
	var buf *[scanRun]float64
	if ex != nil {
		buf = scanRuns.Get().(*[scanRun]float64)
		defer scanRuns.Put(buf)
	}
	screened := ex != nil && k > 0 && ex.StartScreen()
	top := math.Inf(-1) // the heap's top distance once it is full; nothing is below -Inf
	for start := uint32(0); start < n; start += scanRun {
		if done != nil && start%knnCancelStride == 0 && heap.Len() >= k {
			if exactScanTestHook != nil {
				exactScanTestHook(start)
			}
			select {
			case <-done:
				cancelled = true
			default:
			}
			if cancelled {
				break
			}
		}
		end := min(start+scanRun, n)
		if ex != nil {
			var dead uint64
			if tomb != nil {
				dead = tomb.word(int(start/scanRun)) & (1<<(end-start) - 1)
			}
			live := int(end-start) - bits.OnesCount64(dead)
			linesFetched += live * eng.LinesPerVector()
			if screened && heap.Len() >= k {
				// The screen proves a row past the run-start top, which the
				// live top never rises above: a cleared bit is a row the
				// heap would not admit.
				surv := ex.RunSurvivors(start, int(end-start), top) &^ dead
				if ScanScreenHook != nil {
					ScanScreenHook(live, bits.OnesCount64(surv))
				}
				for ; surv != 0; surv &= surv - 1 {
					id := start + uint32(bits.TrailingZeros64(surv))
					if d := ex.Distance(id); d < top {
						heap.ReplaceTop(hnsw.Neighbor{ID: id, Dist: d})
						top = heap.Top().Dist
					}
				}
				continue
			}
			dist := buf[:end-start]
			ex.RunDistances(start, dist)
			for i, d := range dist {
				if dead>>i&1 != 0 {
					continue
				}
				if heap.Len() < k {
					heap.Push(hnsw.Neighbor{ID: start + uint32(i), Dist: d})
					if heap.Len() == k {
						top = heap.Top().Dist
					}
				} else if d < top {
					heap.ReplaceTop(hnsw.Neighbor{ID: start + uint32(i), Dist: d})
					top = heap.Top().Dist
				}
			}
			continue
		}
		for id := start; id < end; id++ {
			if tomb != nil && tomb.IsDeleted(id) {
				continue
			}
			threshold := math.Inf(1)
			if heap.Len() >= k {
				threshold = heap.Top().Dist
			}
			r := eng.Compare(id, threshold)
			linesFetched += r.TotalLines()
			if nb := (hnsw.Neighbor{ID: id, Dist: r.Dist}); heap.Len() < k {
				heap.Push(nb)
			} else if r.Accepted && nb.Less(heap.Top()) {
				heap.ReplaceTop(nb)
			}
		}
	}
	return heap.Sorted(dst), linesFetched, cancelled
}
