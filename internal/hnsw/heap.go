package hnsw

// Neighbor is an (id, distance) pair.
type Neighbor struct {
	ID   uint32
	Dist float64
}

// Less is the canonical result ordering: ascending distance, ties broken
// by ascending id. Using a total order (rather than distance alone) makes
// every search's output deterministic even with duplicate vectors, which is
// what lets a sharded scatter-gather merge reproduce the unsharded result
// byte-for-byte (internal/cluster, MergeTopK).
func (n Neighbor) Less(o Neighbor) bool {
	return n.Dist < o.Dist || (n.Dist == o.Dist && n.ID < o.ID)
}

// Heap is the one binary heap of Neighbors, for the exact scan, the tiered
// pipeline, the IVF probe and the PQ ablation's ET scan (quantize) alike;
// the search beam and the construction beam keep their candidates in a
// sorted frontier instead. The zero value is an empty min-heap on (Dist, ID)
// (the search set of §2.1); Max, set before the first Push or Init, makes it
// a max-heap (a result set, worst first). (Dist, ID) is a total order, so
// what a heap holds and the order it pops in depend only on the multiset
// pushed, never on how the sifts happened to arrange it.
//
// "a goes above b" is a.Less(b) != Max: Less itself for the min-heap, its
// negation for the max-heap — which differs from the reversed order only on
// equal elements, where either answer keeps the heap valid. The sifts move
// a hole instead of swapping, and read Max once; the order is a flag, not a
// less func, because an indirect call per sift costs the hot loops it
// serves.
type Heap struct {
	items []Neighbor
	Max   bool
}

func (h *Heap) Len() int { return len(h.items) }

func (h *Heap) Push(n Neighbor) {
	h.items = append(h.items, n)
	items, max := h.items, h.Max
	i := len(items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if n.Less(items[p]) == max { // n does not go above its parent
			break
		}
		items[i] = items[p]
		i = p
	}
	items[i] = n
}

// Top returns the root without removing it.
func (h *Heap) Top() Neighbor { return h.items[0] }

func (h *Heap) Pop() Neighbor {
	top := h.items[0]
	last := len(h.items) - 1
	n := h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.ReplaceTop(n)
	}
	return top
}

// ReplaceTop replaces the root with n and restores the heap with one
// sift-down: Pop followed by Push(n) at half the work. On a full result set
// (a max-heap bounded at ef) replacing the worst with a newcomer that is
// Less than it keeps exactly what pushing the newcomer and popping the
// worst would — and when the newcomer is not Less, that pair would pop the
// newcomer itself, so the caller skips it.
func (h *Heap) ReplaceTop(n Neighbor) { h.siftDown(0, n) }

// siftDown places n in the subtree rooted at the hole i.
func (h *Heap) siftDown(i int, n Neighbor) {
	items, max := h.items, h.Max
	for {
		c := 2*i + 1
		if c >= len(items) {
			break
		}
		if r := c + 1; r < len(items) && items[r].Less(items[c]) != max {
			c = r
		}
		if items[c].Less(n) == max { // the upper child does not go above n
			break
		}
		items[i] = items[c]
		i = c
	}
	items[i] = n
}

func (h *Heap) Reset() { h.items = h.items[:0] }

// Init makes the heap hold exactly items, heapified in place in O(n): it
// then pops as a heap they were pushed into one by one would.
func (h *Heap) Init(items []Neighbor) {
	h.items = items
	for i := len(items)/2 - 1; i >= 0; i-- {
		h.siftDown(i, items[i])
	}
}

// Sorted empties the heap into dst[:0], grown if short, in reverse pop order
// — on a max-heap, ascending (Dist, ID). dst may be the array the heap
// itself was built on (Init): each Pop frees the slot the popped item lands
// in, so a result set becomes the answer without a second buffer.
func (h *Heap) Sorted(dst []Neighbor) []Neighbor {
	n := len(h.items)
	if cap(dst) < n {
		dst = make([]Neighbor, n)
	}
	dst = dst[:n]
	for i := n - 1; i >= 0; i-- {
		dst[i] = h.Pop()
	}
	return dst
}
