package hnsw

// visitedSet marks visited node ids without per-query allocation or
// clearing: each slot stores the generation at which it was last marked, and
// starting a new query just bumps the generation. A full clear happens only
// on first use, on growth, and on the (once per 4 billion queries)
// generation wrap.
type visitedSet struct {
	gen []uint32
	cur uint32
}

// reset prepares the set for a new query over n ids. It grows to the next
// multiple of chunkNodes, the step the adjacency and the row slab grow by:
// on a live index n rises by one per insert, and growing to exactly n would
// reallocate and zero all n words on every one of them.
func (v *visitedSet) reset(n int) {
	if len(v.gen) < n {
		v.gen = make([]uint32, (n+chunkMask)&^chunkMask)
		v.cur = 0
	}
	v.cur++
	if v.cur == 0 { // generation wrapped: stale marks could alias
		clear(v.gen)
		v.cur = 1
	}
}

// testAndSet returns whether id was already marked this query and marks it.
func (v *visitedSet) testAndSet(id uint32) bool {
	if v.gen[id] == v.cur {
		return true
	}
	v.gen[id] = v.cur
	return false
}

// searchContext bundles the per-query scratch state of a graph traversal:
// the visited set, the beam's frontier, the per-hop batch id and distance
// buffers, and the two heaps of the construction-time beam
// (searchLayerExact), whose first-come tie rule the frontier does not keep.
// Contexts are pooled on the Index so steady-state searches allocate
// nothing.
type searchContext struct {
	vis     visitedSet
	front   frontier
	cand    Heap // build: min-heap, closest first
	results Heap // build: max-heap, worst first
	ids     []uint32
	dist    []float64 // the hop's distances, parallel to ids
	nbuf    []uint32  // live-mode neighbor-list copy scratch (mutate.go)
}

// getCtx fetches a context from the pool (or makes one) and resets it for a
// new query over n ids — the caller's visibility bound, which on a live
// index may be smaller than the backing arrays. The pool has no New func so
// that zero-valued pools embedded in snapshot-loaded indexes work
// identically.
func (ix *Index) getCtx(n int) *searchContext {
	c, _ := ix.ctxPool.Get().(*searchContext)
	if c == nil {
		c = &searchContext{results: Heap{Max: true}}
	}
	c.vis.reset(n)
	c.cand.Reset()
	c.results.Reset()
	c.ids = c.ids[:0]
	return c
}

func (ix *Index) putCtx(c *searchContext) { ix.ctxPool.Put(c) }
