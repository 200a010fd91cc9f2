package hnsw

// Level-0 adjacency. Almost every comparison of a search is issued from the
// base layer, so its lists are what a traversal reads between two distance
// batches. They are held as fixed-stride blocks — 1 + MaxDegree words per
// node: the neighbor count, then the ids (68 B at the paper's degree 16) —
// in chunks of chunkNodes nodes, reached from a small chunk table: two
// loads that mostly hit, against the three dependent ones of a
// [node][level][]uint32 nest. The ~6 % of nodes with levels >= 1 keep
// nested lists for those (adjacency.upper).
//
// A chunk is allocated whole and never reallocated, so a block never moves
// once its chunk is in a published table; growth appends a chunk and
// republishes the table (mutate.go). The immutable and the live index share
// this one representation; they differ only in who may touch a block when
// (mutate.go, "Publication protocol").

const (
	chunkShift = 10
	chunkNodes = 1 << chunkShift
	chunkMask  = chunkNodes - 1
)

// blocks is the level-0 store: the chunk table and the block stride.
type blocks struct {
	stride int // 1 + Config.MaxDegree
	chunks [][]uint32
}

// grown returns the store with chunks covering ids [0, n). Existing chunks
// are shared with the receiver, which stays valid: growth only appends to
// the table.
func (b blocks) grown(n int) blocks {
	for len(b.chunks)<<chunkShift < n {
		b.chunks = append(b.chunks, make([]uint32, chunkNodes*b.stride))
	}
	return b
}

// at is the one accessor of level 0: node id's block [count, ids...],
// clipped to its own stride.
func (b blocks) at(id uint32) []uint32 {
	o := int(id&chunkMask) * b.stride
	return b.chunks[id>>chunkShift][o : o+b.stride : o+b.stride]
}

// setList overwrites a block's ids (at most its MaxDegree of them).
func setList(blk, ids []uint32) {
	blk[0] = uint32(copy(blk[1:], ids))
}

// adjacency is a graph's edge storage as one party sees it: the writer's
// current one (Index), a published one (nodeArrays) or a search's pinned one
// (liveView).
type adjacency struct {
	base  blocks       // level 0
	upper [][][]uint32 // [node][level-1] -> neighbor ids; nil for a level-0 node
}

// list returns id's neighbor list at level, in place: nil above the node's
// own level; at level 0 the ids of its block, clipped to the count in
// capacity too, so an append by whoever receives the slice reallocates
// instead of writing into the block's spare slots or the next node's count.
// On a live index only the writer, or a reader holding the node's stripe
// lock, may call it.
func (a *adjacency) list(id uint32, level int) []uint32 {
	if level == 0 {
		blk := a.base.at(id)
		n := 1 + int(blk[0])
		return blk[1:n:n]
	}
	if up := a.upper[id]; level <= len(up) {
		return up[level-1]
	}
	return nil
}
