package hnsw

// Live mutation support. An Index is immutable after Build unless
// EnableMutation is called; a live index accepts Insert and Repair from a
// SINGLE mutating writer (the Database serializes mutations behind its
// write lock) while any number of searches run concurrently, lock-free on
// the hot path except for per-node stripe mutexes taken only while copying
// one neighbor list.
//
// Publication protocol. It is RCU-style. The rows are not the index's to
// publish: the same single writer appends a node's row to the shared slab
// (internal/rows) before it calls Insert, and the slab's own count orders
// that row before anything below. The index has three atomics:
//
//	arrays — *nodeArrays holding the levels/upper slice headers and the
//	         level-0 chunk table. Republished on every insert (appends may
//	         grow the backing arrays; old readers keep the old, shorter
//	         headers). A level-0 chunk is allocated whole and only ever
//	         appended to the table, so a block a reader reached through
//	         any published table is the block the writer writes: it never
//	         moves.
//	count  — the number of fully-initialized nodes. A node's row (in the
//	         slab), level and (empty) neighbor lists are written before
//	         count publishes it, so count.Load() is a safe upper bound on
//	         the ids a reader may touch.
//	epoch  — the routing entry point and top level, packed into one
//	         word so they are always read consistently.
//
// Writer order:  row into the slab → write node → publish arrays → publish
// count → link edges (stripe-locked list writes) → publish epoch.
// Reader order:  load epoch → load count → load arrays, then the engine
// pins the slab (StartQuery). The acquire on epoch makes the preceding
// count store visible, so entry < count; the acquire on count makes the
// preceding arrays store visible, so len(arrays) >= count, and the slab's
// earlier count store too, so a slab view pinned afterwards holds a row for
// every id below count. Edges linked to nodes beyond a reader's count
// snapshot are filtered out during the stripe-locked list copy.
//
// Repair never clears an excised node's own lists: a reader whose view
// predates the excision may be standing on the node and must walk off it.
//
// A published node's lists change only under the node's stripe lock
// (setNeighbors), and a live reader reads a list only under that same lock,
// copying it into pooled scratch before it uses it (liveView.neighborsAt;
// Stats and Neighbors likewise). That is what makes rewriting a level-0
// block in place sound: no reader ever holds a reference into a live block
// outside the lock, so it sees the list before the write or after it, never
// a count from one and ids from the other. The lock-free sub-slice of a
// block is handed out on an immutable index only, where nothing writes.
// Upper-level lists keep the older discipline — a fresh list, its header
// swapped under the lock — because they are separately allocated anyway.
// The writer reads its own lists without the lock: it is the only one who
// writes them.

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"ansmet/internal/stats"
)

const (
	stripeCount = 512
	stripeMask  = stripeCount - 1
)

// nodeArrays is one RCU publication of the index's node storage.
type nodeArrays struct {
	levels []int
	adj    adjacency
}

// publish makes the writer's current node storage the one readers load.
func (ix *Index) publish() {
	ix.live.arrays.Store(&nodeArrays{levels: ix.levels, adj: ix.adj})
}

// liveState is the concurrent-mutation state of a live index.
type liveState struct {
	arrays  atomic.Pointer[nodeArrays]
	count   atomic.Int64
	epoch   atomic.Uint64 // entry<<32 | uint32(maxLevel+1)
	stripes [stripeCount]sync.Mutex
}

func packEpoch(entry uint32, maxLevel int) uint64 {
	return uint64(entry)<<32 | uint64(uint32(maxLevel+1))
}

func unpackEpoch(e uint64) (entry uint32, maxLevel int) {
	return uint32(e >> 32), int(uint32(e)) - 1
}

// EnableMutation switches the index into live mode: Insert and Repair
// become legal (from one writer at a time) and searches route through the
// publication protocol above. Must be called before any concurrent use.
// Idempotent.
func (ix *Index) EnableMutation() {
	if ix.live != nil {
		return
	}
	ix.live = &liveState{}
	ix.publish()
	ix.live.count.Store(int64(len(ix.levels)))
	ix.live.epoch.Store(packEpoch(ix.entry, ix.maxLevel))
}

// Live reports whether the index accepts mutation.
func (ix *Index) Live() bool { return ix.live != nil }

// levelFor assigns node id its level from a hash of (seed, id) rather than
// a sequential RNG draw. Build keeps the sequential RNG (byte-identical
// graphs for existing snapshots); inserts use the hash so that the level —
// and therefore the graph — depends only on the set of (seed, id) pairs,
// making WAL replay deterministic regardless of how construction and
// recovery interleave.
func levelFor(seed uint64, id uint32, mL float64) int {
	x := stats.Mix64(seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15)
	u := float64(x>>11) / (1 << 53) // in [0, 1)
	return int(-math.Log(1-u) * mL)
}

// Insert links the slab's next row — the one whose id is the current node
// count, which the caller has already appended to the index's slab — into
// the graph as a new node, and returns that id. Live index only, called by
// the slab's single writer; searches may run concurrently.
func (ix *Index) Insert() uint32 {
	if ix.live == nil {
		panic("hnsw: Insert on an immutable index (call EnableMutation first)")
	}
	id := uint32(len(ix.levels))
	ix.rv = ix.rows.View()
	if int(id) >= ix.rv.Len() {
		panic(fmt.Sprintf("hnsw: Insert of node %d, the slab holds %d rows (append the row first)", id, ix.rv.Len()))
	}
	lvl := levelFor(ix.cfg.Seed, id, 1/math.Log(float64(ix.cfg.M)))
	ix.levels = append(ix.levels, lvl)
	ix.adj.upper = append(ix.adj.upper, upperLists(lvl))
	ix.adj.base = ix.adj.base.grown(len(ix.levels)) // a new chunk every chunkNodes inserts
	ix.publish()
	ix.live.count.Store(int64(id) + 1)
	ix.insert(id) // links edges; setNeighbors writes lists under stripe locks
	ix.live.epoch.Store(packEpoch(ix.entry, ix.maxLevel))
	return id
}

// Repair excises deleted nodes from the graph: each one's still-alive
// neighbors are cross-connected (preserving local connectivity through the
// hole) and it is removed from every adjacency list that names it, so no
// new traversal can reach it. Its own lists are kept: a lock-free traversal
// may be standing on it when Repair runs, and its out-edges are what lets
// that traversal walk off again — routable, not returnable (the tombstone
// filter keeps it out of results). Clearing them would free nothing (level-0
// blocks are fixed-stride, slots are never reclaimed); dropping the edges
// belongs with slot reclamation. The current entry point is skipped — it
// stays routable until a later insert raises a new top-level node.
// Writer-side: same single-writer contract as Insert.
func (ix *Index) Repair(deleted []uint32, alive func(uint32) bool) {
	if ix.live == nil || len(deleted) == 0 {
		return
	}
	dead := make(map[uint32]bool, len(deleted))
	for _, d := range deleted {
		if int(d) < len(ix.levels) && d != ix.entry {
			dead[d] = true
		}
	}
	if len(dead) == 0 {
		return
	}
	// Cross-connect each hole's surviving neighborhood first, in the given
	// (deterministic) order, so routing paths through a deleted node are
	// replaced before the edges into it disappear.
	for _, d := range deleted {
		if !dead[d] {
			continue
		}
		for l := ix.levels[d]; l >= 0; l-- {
			nbs := ix.adj.list(d, l)
			keep := make([]uint32, 0, len(nbs))
			for _, n := range nbs {
				if !dead[n] && (alive == nil || alive(n)) {
					keep = append(keep, n)
				}
			}
			// No memo is held outside Build: connect computes every
			// distance itself and never reads the Neighbors' Dist.
			for i, a := range keep {
				for _, b := range keep[i+1:] {
					ix.connect(a, Neighbor{ID: b}, l)
					ix.connect(b, Neighbor{ID: a}, l)
				}
			}
		}
	}
	// HNSW edges are not symmetric, so in-edges to a deleted node can come
	// from anywhere: sweep every adjacency list once, dropping dead ids.
	// Batched deferred repair amortizes this O(nodes·degree) pass.
	isDead := func(n uint32) bool { return dead[n] }
	for i, lvl := range ix.levels {
		id := uint32(i)
		if dead[id] {
			continue
		}
		for l := 0; l <= lvl; l++ {
			lst := ix.adj.list(id, l)
			if !slices.ContainsFunc(lst, isDead) {
				continue
			}
			ix.sel = slices.DeleteFunc(append(ix.sel[:0], lst...), isDead)
			ix.setNeighbors(id, l, ix.sel)
		}
	}
}

// liveView is one search's consistent snapshot of the graph: routing
// state, the id visibility bound, and the edge storage backing it.
type liveView struct {
	entry    uint32
	maxLevel int
	count    int
	adj      adjacency
	live     *liveState // nil: immutable index, direct reads
}

// view captures a consistent snapshot for one traversal. On an immutable
// index this is a plain struct fill — no atomics, no behavior change.
func (ix *Index) view() liveView {
	if ix.live == nil {
		return liveView{entry: ix.entry, maxLevel: ix.maxLevel, count: len(ix.levels), adj: ix.adj}
	}
	entry, maxLevel := unpackEpoch(ix.live.epoch.Load())
	n := int(ix.live.count.Load())
	arr := ix.live.arrays.Load()
	return liveView{entry: entry, maxLevel: maxLevel, count: n, adj: arr.adj, live: ix.live}
}

// neighborsAt returns the adjacency list of id at level. Immutable: the
// list itself, in place. Live: a stripe-locked copy into ctx.nbuf with ids
// at or beyond the view's count bound filtered out (they were linked by
// inserts newer than this snapshot); the returned slice is valid until the
// next neighborsAt call on the same ctx.
func (v *liveView) neighborsAt(id uint32, level int, ctx *searchContext) []uint32 {
	if v.live == nil {
		return v.adj.list(id, level)
	}
	buf := ctx.nbuf[:0]
	mu := &v.live.stripes[id&stripeMask]
	mu.Lock()
	for _, nb := range v.adj.list(id, level) {
		if int(nb) < v.count {
			buf = append(buf, nb)
		}
	}
	mu.Unlock()
	ctx.nbuf = buf
	return buf
}
