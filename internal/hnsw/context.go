package hnsw

import "slices"

// visitedSet marks visited node ids without per-query allocation: one bit
// per node, cleared when a query starts. At n = 20 000 it is 2.5 KB, which
// stays in L1 beside the frontier where a uint32 generation word per node
// (80 KB) did not; clearing it costs a query n/8 bytes of stores
// (EXPERIMENTS.md, "The exact scan, one kernel call per run").
type visitedSet struct {
	bits []uint64
}

// reset prepares the set for a new query over n ids. It grows to the next
// multiple of chunkNodes, the step the adjacency and the row slab grow by:
// on a live index n rises by one per insert, and growing to exactly n would
// reallocate on every one of them.
func (v *visitedSet) reset(n int) {
	words := (n + 63) >> 6
	if cap(v.bits) < words {
		v.bits = make([]uint64, ((n+chunkMask)&^chunkMask)>>6)
	}
	v.bits = v.bits[:words]
	clear(v.bits)
}

// testAndSet returns whether id was already marked this query and marks it.
func (v *visitedSet) testAndSet(id uint32) bool {
	w, b := &v.bits[id>>6], uint64(1)<<(id&63)
	if *w&b != 0 {
		return true
	}
	*w |= b
	return false
}

// appendUnseen appends to dst the ids of nbs not yet marked this query, in
// order, and marks them. It stores every id and advances past only the
// fresh ones, so the loop carries no branch on the mark.
func (v *visitedSet) appendUnseen(dst, nbs []uint32) []uint32 {
	n := len(dst)
	dst = slices.Grow(dst, len(nbs))[:n+len(nbs)]
	for _, id := range nbs {
		w := &v.bits[id>>6]
		seen := *w >> (id & 63) & 1
		*w |= 1 << (id & 63)
		dst[n] = id
		n += int(seen ^ 1)
	}
	return dst[:n]
}

// searchContext bundles the per-query scratch state of a graph traversal:
// the visited set, the beam's frontier (the search's and the build's) and
// the per-hop batch id, distance and admission buffers. Contexts are pooled
// on the Index so steady-state searches allocate nothing.
type searchContext struct {
	vis   visitedSet
	front frontier
	ids   []uint32
	dist  []float64       // the hop's distances, parallel to ids
	hop   []frontierEntry // the hop's admitted candidates (frontier.pushAll)
	nbuf  []uint32        // live-mode neighbor-list copy scratch (mutate.go)
}

// getCtx fetches a context from the pool (or makes one) and resets it for a
// new query over n ids — the caller's visibility bound, which on a live
// index may be smaller than the backing arrays. The pool has no New func so
// that zero-valued pools embedded in snapshot-loaded indexes work
// identically.
func (ix *Index) getCtx(n int) *searchContext {
	c, _ := ix.ctxPool.Get().(*searchContext)
	if c == nil {
		c = &searchContext{}
	}
	c.vis.reset(n)
	c.ids = c.ids[:0]
	return c
}

func (ix *Index) putCtx(c *searchContext) { ix.ctxPool.Put(c) }
