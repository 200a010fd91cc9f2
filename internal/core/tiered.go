package core

import (
	"math"

	"ansmet/internal/hnsw"
)

// This file implements the tiered bound-first / exact-rerank query pipeline
// (FusionANNS-style, ROADMAP item 3). A query runs in two stages over the
// early-termination store:
//
//   - Stage 1 scans every id with its bounder's RunTo (bitplane.Bounder or
//     prefixelim.OutlierBounder, seen as one lineStepper), never fetching a
//     bit-plane vector fully and never touching an outlier's full-precision
//     backup. Per-vector refinement stops early once the
//     bound exceeds the running k-th smallest bound seen so far — a looser
//     stop than ExactKNN's exact-k-th threshold, so stage 1 is strictly
//     cheaper per vector. An early stop only coarsens that id's bound; no
//     id is ever dropped, so every id enters stage 2 with a valid lower
//     bound on its true distance.
//
//   - Stage 2 pops ids off a min-heap in ascending (bound, id) order and
//     re-ranks them with the exact Compare path — the same kernels, heap
//     and tie-break as ExactKNN, so the results over the re-ranked pool are
//     byte-identical to an exact scan of those ids. The ascending-bound
//     visit order tightens the running k-th exact distance near-optimally
//     fast, which is where the speedup over an id-order exact scan comes
//     from.
//
// The cut between the stages is adaptive, per query: stage 2 stops when the
// next bound exceeds kth − (1−Budget)·|kth|, where kth is the running k-th
// exact distance. Budget = 1 makes the stop provably lossless (a bound
// above kth proves the true distance is above kth, for L2 and IP alike);
// Budget < 1 trades that guarantee for a smaller pool. The stop threshold
// is monotone in Budget and stage 1 does not depend on it, so a larger
// budget always re-ranks a superset pool (identical execution prefix).

// TieredOpts tunes the tiered pipeline.
type TieredOpts struct {
	// Budget is the recall-style cut knob in (0, 1]: stage 2 keeps
	// re-ranking while the next candidate's bound is within
	// (1−Budget)·|kth| below the running k-th exact distance. 1 (the
	// default for out-of-range values) guarantees the exact answer.
	Budget float64
	// MaxBoundLines caps the stage-1 lines consumed per vector. 0 picks an
	// adaptive default — slotLines/2 clamped to [1, 4] — which measures
	// best across profiles: coarse bounds are cheap to produce and the
	// ascending-bound stage-2 visit order compensates for their slack.
	// Negative means the never-fully-fetch maximum (LinesPerVector()−1).
	// On an engine in adaptive mode (SetPrecision) it is the ceiling of
	// the per-vector depths instead.
	MaxBoundLines int
}

// TieredStats reports one tiered query's work split.
type TieredStats struct {
	Pool        int  // ids re-ranked exactly in stage 2
	BoundLines  int  // lines fetched by the stage-1 bound-only scan
	RerankLines int  // lines (incl. outlier backups) fetched by stage 2
	Escalated   int  // stage-1 candidates escalated past their static depth
	AtRisk      int  // returned results inside the adaptive cut's risk window
	Cancelled   bool // stopped at a cooperative-cancellation checkpoint
}

// lineStepper is what stage 1 needs of a bounder, bit-plane or outlier: start
// a vector, then consume its lines until the bound passes stop or limit lines
// are in (resumable).
type lineStepper interface {
	Reset()
	RunTo(data []byte, stop float64, limit int) (lb float64, lines int)
}

// rerankStop is the adaptive stage-2 cut: re-ranking stops once the next
// candidate's bound exceeds this. Subtracting a fraction of |kth| (rather
// than multiplying) keeps the relaxation direction correct for both L2
// (kth ≥ 0) and IP (kth may be negative): smaller budgets always lower the
// stop, never raise it.
func rerankStop(kth, budget float64) float64 {
	return kth - (1-budget)*math.Abs(kth)
}

// knnCancelStride is the tiered scan's cooperative-cancellation checkpoint
// stride: the done channel is polled once every knnCancelStride ids of
// stage 1 and pops of stage 2, bounding the post-cancel overrun while
// keeping the steady-state cost to a counter test.
const knnCancelStride = 256

// tieredScanTestHook, when non-nil, runs at every cancellation checkpoint
// of a done-instrumented tiered scan; tests use it to fire done at a
// precise checkpoint. Only consulted when done != nil, so the uncancellable
// scan never pays for it.
var tieredScanTestHook func(id uint32)

// TieredKNNInto is TieredKNNPool without the pool: the tiered k nearest
// neighbors of q appended into dst[:0] (the entry point bench/ pins).
func (e *ETEngine) TieredKNNInto(done <-chan struct{}, q []float32, k int, opt TieredOpts, dst []hnsw.Neighbor) ([]hnsw.Neighbor, TieredStats) {
	nn, st, _ := e.TieredKNNPool(done, q, k, opt, dst, nil)
	return nn, st
}

// TieredKNNPool runs the tiered bound-first/exact-rerank pipeline for the k
// nearest neighbors of q, appending results into dst[:0]. With Budget = 1
// the results are byte-identical to ExactKNN (gated by tests); with a
// reused dst the steady state allocates nothing. A nil done channel
// disables cancellation; a cancelled stage 1 returns no results (bounds
// alone are not usable answers), a cancelled stage 2 returns the exact
// top-k over the prefix of the pool re-ranked so far.
//
// A non-nil pool additionally collects the re-ranked ids, in stage-2 visit
// order, into pool[:0] — the observable the monotone-pool property tests
// read; nil means do not collect.
func (e *ETEngine) TieredKNNPool(done <-chan struct{}, q []float32, k int, opt TieredOpts, dst []hnsw.Neighbor, pool []uint32) ([]hnsw.Neighbor, TieredStats, []uint32) {
	pool = pool[:0]
	budget := opt.Budget
	if budget <= 0 || budget > 1 {
		budget = 1
	}
	limit := e.store.Layout.LinesPerVector() - 1
	maxLines := opt.MaxBoundLines
	if maxLines == 0 {
		maxLines = e.store.slotLines / 2
		if maxLines > 4 {
			maxLines = 4
		}
		if maxLines < 1 {
			maxLines = 1
		}
	}
	if maxLines < 0 || maxLines > limit {
		maxLines = limit
	}

	var st TieredStats
	e.StartQuery(q)
	n := uint32(e.store.Len())

	// Stage 1: bound-only scan. tierHeap tracks the k smallest bounds seen
	// so far; its top is the refinement stop — once an id's bound exceeds
	// it, the id cannot rank among the k best bounds, so further lines
	// would only tighten an already-sufficient ordering key.
	bh := &e.tierHeap
	bh.Reset()
	entries := e.tierEntries[:0]
	for id := uint32(0); id < n; id++ {
		if done != nil && id%knnCancelStride == 0 {
			if tieredScanTestHook != nil {
				tieredScanTestHook(id)
			}
			select {
			case <-done:
				e.tierEntries = entries[:0]
				st.Cancelled = true
				return dst[:0], st, pool
			default:
			}
		}
		if e.tomb != nil && e.tomb.IsDeleted(id) {
			continue // tombstoned: never bounded, never enters stage 2
		}
		stopAt := math.Inf(1)
		if bh.Len() >= k {
			stopAt = bh.Top().Dist
		}
		// Three things depend on the id's encoding: the bounder that steps
		// its lines; the line geometry the adaptive depth is read on; and
		// the most of them stage 1 may fetch — all but the last of a
		// bit-plane vector (the last would turn the bound into the distance,
		// which is stage 2's to fetch), all of an outlier's, whose lossy
		// encoding never yields more than a bound.
		step, enc, ceil := lineStepper(e.b), limit+1, limit
		if e.ob != nil && e.store.isOutlier[id] {
			step, enc, ceil = e.ob, e.ob.Lines(), e.ob.Lines()
		}
		// In adaptive mode the id fetches its static depth and escalates
		// once, to the stage-1 ceiling, when its bound is in the margin
		// window below the running k-th bound.
		depth := maxLines
		if e.prec != nil {
			depth = e.staticDepth(id, enc, maxLines)
		}
		data := e.slot(id)
		step.Reset()
		lb, lines := step.RunTo(data, stopAt, min(depth, ceil))
		if depth < maxLines && lines >= depth && e.inMargin(lb, stopAt) {
			lb, lines = step.RunTo(data, stopAt, maxLines)
			st.Escalated++
		}
		st.BoundLines += lines
		ent := hnsw.Neighbor{ID: id, Dist: lb}
		if bh.Len() < k {
			bh.Push(ent)
		} else if ent.Less(bh.Top()) {
			bh.ReplaceTop(ent)
		}
		entries = append(entries, ent)
	}
	e.tierEntries = entries

	// Stage 2: exact re-rank in ascending (bound, id) order (deterministic:
	// the monotone-pool property relies on it) with the adaptive cut. Same
	// Compare/heap/tie-break semantics as ExactKNN, so the results over the
	// visited pool are byte-identical to an exact scan of those ids.
	var queue hnsw.Heap
	queue.Init(entries)
	kh := &e.knnHeap
	kh.Reset()
	pops := 0
	for queue.Len() > 0 {
		if kh.Len() >= k && queue.Top().Dist > rerankStop(kh.Top().Dist, budget) {
			break
		}
		id := queue.Pop().ID
		if done != nil && pops%knnCancelStride == 0 {
			if tieredScanTestHook != nil {
				tieredScanTestHook(id)
			}
			select {
			case <-done:
				st.Cancelled = true
			default:
			}
			if st.Cancelled {
				break
			}
		}
		pops++
		th := math.Inf(1)
		if kh.Len() >= k {
			th = kh.Top().Dist
		}
		r := e.compareExact(id, th)
		st.RerankLines += r.TotalLines()
		// A tie at the threshold is accepted, so the newcomer replaces the
		// worst only when it is Less (the smaller id stays), as in ExactKNN.
		if nb := (hnsw.Neighbor{ID: id, Dist: r.Dist}); kh.Len() < k {
			kh.Push(nb)
		} else if r.Accepted && nb.Less(kh.Top()) {
			kh.ReplaceTop(nb)
		}
		if pool != nil {
			pool = append(pool, id)
		}
		st.Pool++
	}
	e.tierEntries = e.tierEntries[:0]

	dst = kh.Sorted(dst)
	m := len(dst)
	// Risk-window census for the recall-target tuner: results whose exact
	// distance lies inside (stop, kth] are the ones a slightly looser bound
	// ordering would have cut first — their mass is the observed recall
	// risk of this budget. Always 0 at Budget 1 (stop == kth there).
	if m > 0 {
		stop := rerankStop(dst[m-1].Dist, budget)
		for i := m - 1; i >= 0 && dst[i].Dist > stop; i-- {
			st.AtRisk++
		}
	}
	return dst, st, pool
}
