package hnsw

import (
	"math"

	"ansmet/internal/engine"
)

// Recorder receives a search's comparison batches hop by hop, for the timing
// simulation: BeginHop opens a hop at an index level (-1 for a non-layered
// phase), AddTask records one comparison issued in it — the id, the
// threshold the comparison carried and the engine's result — and EndHop
// seals it with the hop's host-side op count. The simulator's trace.Query is
// one. A nil Recorder records nothing and costs nothing.
type Recorder interface {
	BeginHop(level int)
	AddTask(id uint32, threshold float64, r engine.Result)
	EndHop(hostOps int)
}

// alwaysAccept is the nil-filter default (a package-level func value, so
// substituting it never allocates a closure).
var alwaysAccept = func(uint32) bool { return true }

// SearchFilteredInto is SearchCancelInto without a cancellation channel,
// for callers that can never be cancelled (the simulator's trace recording,
// offline experiments).
func (ix *Index) SearchFilteredInto(q []float32, k, ef, batch int, filter func(uint32) bool, eng engine.Engine, rec Recorder, dst []Neighbor) []Neighbor {
	out, _ := ix.SearchCancelInto(nil, q, k, ef, batch, filter, eng, rec, dst)
	return out
}

// cancelCheckHops is the cooperative-cancellation checkpoint stride: the
// done channel is polled once every cancelCheckHops hops (a hop issues one
// comparison batch, ~MaxDegree distance computations at batch=1), so a
// cancelled search stops within one checkpoint interval while the
// steady-state cost of the plumbing is a counter increment plus, every
// fourth hop, one non-blocking channel poll — no allocation, no syscall.
const cancelCheckHops = 4

// SearchCancelInto is the one beam-search core. When rec is non-nil the
// per-hop comparison batches are recorded for the timing simulation.
// Results are appended into dst[:0], sorted ascending by distance.
//
// The rejection threshold of each hop is snapshotted when the hop's batch
// is issued — matching the hardware, where each set-search task carries its
// own distance threshold (§5.2).
//
// batch is the delayed-synchronization width: up to batch candidates are
// taken from the search set per hop and their unvisited neighbors
// offloaded as one comparison batch. Batching reduces the number of
// host/NDP synchronization points per query (the technique of
// delayed-synchronization traversal, which the paper cites) at a small cost
// in extra comparisons; batch <= 1 is the textbook greedy beam search.
//
// filter adds attribute filtering (hybrid search, §8): only ids passing it
// enter the result set, while traversal still crosses non-matching vertices
// so graph connectivity is preserved. A nil filter accepts everything.
// Distance comparisons — the part ANSMET accelerates — are unchanged; note
// that with a filter the rejection thresholds derive from matching results
// only, so they tighten more slowly.
//
// The traversal scratch state (visited set, frontier, batch buffer) comes
// from a per-index pool, and all trace bookkeeping is skipped when rec is
// nil, so a steady-state search with a reused dst and nil rec performs zero
// heap allocations (enforced by TestSearchSteadyStateAllocs).
//
// done is a cooperative-cancellation channel threaded through the
// traversal; nil disables every check. When done fires, the search stops at
// the next checkpoint and returns (partial, true): whatever the result set
// held so far, sorted — an empty slice when cancellation landed before the
// base layer produced anything. The caller decides how to surface partial
// results; this layer only reports them.
func (ix *Index) SearchCancelInto(done <-chan struct{}, q []float32, k, ef, batch int, filter func(uint32) bool, eng engine.Engine, rec Recorder, dst []Neighbor) ([]Neighbor, bool) {
	if ef < k {
		ef = k
	}
	if batch < 1 {
		batch = 1
	}
	if filter == nil {
		filter = alwaysAccept
	}
	if done != nil {
		select {
		case <-done:
			return dst[:0], true
		default:
		}
	}
	// Capture a consistent graph snapshot and the traversal scratch before
	// the first comparison. On an immutable index the view is a plain field
	// read; on a live one it pins entry/count/arrays for the whole query
	// (see mutate.go for the ordering argument).
	v := ix.view()
	ctx := ix.getCtx(v.count)
	defer ix.putCtx(ctx)
	eng.StartQuery(q)
	// The batch capability, discovered once. A recorded search needs a
	// Result per task, so it compares id by id whatever the engine.
	bat, _ := eng.(engine.Batcher)
	if rec != nil {
		bat = nil
	}
	dist := ctx.dist

	// Entry comparison (threshold ∞: always accepted, full fetch).
	entryRes := eng.Compare(v.entry, math.Inf(1))
	if rec != nil {
		rec.BeginHop(v.maxLevel)
		rec.AddTask(v.entry, math.Inf(1), entryRes)
		rec.EndHop(2)
	}
	cur := v.entry
	curDist := entryRes.Dist
	hops := 0

	// Greedy descent through the upper layers. Cancellation here aborts
	// with no results: the descent has not touched the base layer yet, so
	// there is nothing usable to return.
	for l := v.maxLevel; l >= 1; l-- {
		for {
			hops++
			if done != nil && hops%cancelCheckHops == 0 {
				select {
				case <-done:
					return dst[:0], true
				default:
				}
			}
			nbs := v.neighborsAt(cur, l, ctx)
			if len(nbs) == 0 {
				break
			}
			if rec != nil {
				rec.BeginHop(l)
			}
			if bat != nil {
				bat.Hint(nbs)
				dist = bat.Distances(nbs, dist[:0])
			}
			improved := false
			for i, nb := range nbs {
				// Without the capability each neighbor is compared against
				// the running best, as the hardware task would be.
				d := rejected
				if bat != nil {
					d = dist[i]
				} else {
					res := eng.Compare(nb, curDist)
					if rec != nil {
						rec.AddTask(nb, curDist, res)
					}
					if res.Accepted {
						d = res.Dist
					}
				}
				if d < curDist {
					cur, curDist = nb, d
					improved = true
				}
			}
			if rec != nil {
				rec.EndHop(1 + len(nbs))
			}
			if !improved {
				break
			}
		}
	}

	// Beam search on the base layer, over the pooled scratch state.
	visited := &ctx.vis
	visited.testAndSet(cur)
	// Mark upper-layer visits too so they are not re-fetched; the entry
	// point was already compared.
	visited.testAndSet(v.entry)

	front := &ctx.front
	front.reset(ef)
	front.push(cur, curDist, filter(cur))
	ids, hop := ctx.ids, ctx.hop
	cancelled := false

	for front.pending() {
		hops++
		if done != nil && hops%cancelCheckHops == 0 {
			select {
			case <-done:
				cancelled = true
			default:
			}
			if cancelled {
				break
			}
		}
		// Expand up to `batch` candidates, closest first. Every candidate
		// the frontier still holds lies within the worst result; past them
		// are only the dead ones (see frontier), of which a hop drops one,
		// as a heap popping beyond the worst would. If that happens before
		// anything was expanded the search has converged.
		ids = ids[:0]
		converged := false
		for popped := 0; popped < batch; popped++ {
			c, ok := front.next()
			if !ok {
				if front.dead > 0 {
					front.dead--
					converged = popped == 0
				}
				break
			}
			fresh := len(ids)
			ids = visited.appendUnseen(ids, v.neighborsAt(c, 0, ctx))
			if bat != nil {
				bat.Hint(ids[fresh:])
			}
		}
		if converged {
			break
		}
		if len(ids) == 0 {
			continue
		}
		threshold := front.threshold()
		// Compare phase: the hop's distances land in dist, from one batch
		// call over rows already hinted or, without the capability, from a
		// Compare per id whose verdict the adapter has already applied — so
		// there the accept test below admits everything but a rejection.
		admit := threshold
		if bat != nil {
			dist = bat.Distances(ids, dist[:0])
		} else {
			dist = compareEach(eng, rec, ids, threshold, dist[:0])
			admit = math.Inf(1)
		}
		hop = hop[:0]
		for i, nb := range ids {
			if d := dist[i]; d <= admit {
				hop = append(hop, frontierEntry{dist: d, id: nb, pass: filter(nb)})
			}
		}
		front.pushAll(hop)
	}
	// Keep any capacity growth for the next query.
	ctx.ids, ctx.dist, ctx.hop = ids, dist, hop

	return front.answer(k, dst), cancelled
}

// rejected is what compareEach stores for a comparison the engine rejected:
// a value no threshold admits, +Inf included.
var rejected = math.NaN()

// compareEach is the per-id adapter of the compare phase for an engine
// without engine.Batcher (or a recorded search): one Compare per id at the
// hop's threshold, in order, recorded as one hop of tasks when rec is
// non-nil. An accepted comparison stores its distance, a rejected one
// `rejected`.
func compareEach(eng engine.Engine, rec Recorder, ids []uint32, threshold float64, dst []float64) []float64 {
	if rec != nil {
		rec.BeginHop(0)
	}
	for _, id := range ids {
		res := eng.Compare(id, threshold)
		if rec != nil {
			rec.AddTask(id, threshold, res)
		}
		d := rejected
		if res.Accepted {
			d = res.Dist
		}
		dst = append(dst, d)
	}
	if rec != nil {
		rec.EndHop(2 + 2*len(ids))
	}
	return dst
}

// Stats summarizes the built graph.
type Stats struct {
	Nodes     int
	MaxLevel  int
	Entry     uint32
	AvgDegree float64 // base layer
	LevelPop  []int   // nodes whose level >= index position
}

// Stats returns structural statistics of the graph. Safe to call
// concurrently with mutation on a live index (degree reads take the
// per-node stripe locks).
func (ix *Index) Stats() Stats {
	v := ix.view()
	s := Stats{Nodes: v.count, MaxLevel: v.maxLevel, Entry: v.entry}
	s.LevelPop = make([]int, v.maxLevel+1)
	levels := ix.viewLevels(&v)
	deg := 0
	var ctx searchContext // Stats is not a hot path: no pooling
	for i := 0; i < v.count; i++ {
		deg += len(v.neighborsAt(uint32(i), 0, &ctx))
		for l := 0; l <= levels[i] && l <= v.maxLevel; l++ {
			s.LevelPop[l]++
		}
	}
	s.AvgDegree = float64(deg) / float64(v.count)
	return s
}

// viewLevels returns the levels array consistent with v's count bound.
func (ix *Index) viewLevels(v *liveView) []int {
	if v.live == nil {
		return ix.levels
	}
	return v.live.arrays.Load().levels[:v.count]
}

// TopLayerIDs returns the ids of all nodes whose level is within the top
// `layers` layers of the graph — the index-structure hint the paper uses to
// pick hot vectors for replication (§5.3).
func (ix *Index) TopLayerIDs(layers int) []uint32 {
	v := ix.view()
	min := v.maxLevel - layers + 1
	if min < 0 {
		min = 0
	}
	var out []uint32
	for i, l := range ix.viewLevels(&v) {
		if l >= min {
			out = append(out, uint32(i))
		}
	}
	return out
}

// MaxLevel returns the top layer index.
func (ix *Index) MaxLevel() int {
	if ix.live != nil {
		_, ml := unpackEpoch(ix.live.epoch.Load())
		return ml
	}
	return ix.maxLevel
}

// Entry returns the current entry point.
func (ix *Index) Entry() uint32 {
	if ix.live != nil {
		e, _ := unpackEpoch(ix.live.epoch.Load())
		return e
	}
	return ix.entry
}

// Level returns the level of node id, or -1 when id is out of range (ids
// can come from untrusted request payloads; exported accessors must not
// panic on a bad one).
func (ix *Index) Level(id uint32) int {
	v := ix.view()
	if int(id) >= v.count {
		return -1
	}
	return ix.viewLevels(&v)[id]
}

// Neighbors exposes the adjacency list of id at the given level. On an
// immutable index the returned slice is the stored one (read-only, and
// clipped so an append reallocates); on a mutable index it is a
// stripe-locked copy of the ids published when it was taken. Out-of-range
// ids or levels return nil.
func (ix *Index) Neighbors(id uint32, level int) []uint32 {
	v := ix.view()
	if int(id) >= v.count || level < 0 {
		return nil
	}
	var ctx searchContext
	return v.neighborsAt(id, level, &ctx)
}
