// Package hnsw implements the Hierarchical Navigable Small Worlds graph
// index (Malkov & Yashunin, the paper's representative ANNS index, §2.1).
// Construction follows the original algorithm with the heuristic neighbor
// selection; search routes every distance comparison through an
// engine.Engine so the same traversal runs against exact CPU kernels or the
// early-terminating NDP model, optionally handing its comparison batches to
// a Recorder for the timing simulation.
package hnsw

import (
	"fmt"
	"math"
	mathbits "math/bits"
	"slices"
	"sync"

	"ansmet/internal/rows"
	"ansmet/internal/stats"
	"ansmet/internal/vecmath"
)

// Config holds the construction parameters. The paper builds its indexes
// with efConstruction=500 and maximum degree 16 (§6); the scaled-down
// experiments use smaller efConstruction, reported alongside results.
type Config struct {
	// M is the number of neighbors targeted per insertion on every layer.
	M int
	// MaxDegree caps the degree of any vertex (paper: 16).
	MaxDegree int
	// EfConstruction is the beam width during construction.
	EfConstruction int
	// Seed drives level assignment.
	Seed uint64
}

// DefaultConfig returns the paper's construction parameters.
func DefaultConfig() Config {
	return Config{M: 16, MaxDegree: 16, EfConstruction: 500, Seed: 1}
}

// validate rejects parameters no graph can be built or grown with. M must be
// at least 2: level assignment scales by 1/ln(M).
func (c Config) validate() error {
	if c.M < 2 || c.MaxDegree < c.M/2 || c.EfConstruction <= 0 {
		return fmt.Errorf("hnsw: invalid config %+v (need M >= 2, MaxDegree >= M/2, EfConstruction > 0)", c)
	}
	return nil
}

// Index is a built HNSW graph over the rows of a slab it shares with whoever
// serves them (internal/rows): the graph holds no vector data of its own.
type Index struct {
	cfg    Config
	metric vecmath.Metric
	rows   *rows.Slab
	// rv is the writer's view of the slab (every node has its row in it),
	// kern the slab's element type × the metric, chosen once.
	rv   rows.View
	kern vecmath.RowKernel

	levels   []int     // level of each node
	adj      adjacency // the writer's current edge storage (blocks.go)
	entry    uint32
	maxLevel int

	// live is non-nil once EnableMutation has been called; see mutate.go
	// for the publication protocol. Nil keeps every path byte-identical
	// to the immutable index.
	live *liveState

	// The writer's scratch; construction and mutation are single-writer, so
	// one of each serves. sel is connect's new list, work the candidates of
	// its pruning by slot, cands and kept their sorted and kept Neighbors.
	sel   []uint32
	work  []workSlot
	cands []Neighbor
	kept  []Neighbor

	// memo is the pruning memo while Build runs, and empty after it.
	memo pruneMemo

	ctxPool sync.Pool // *searchContext, see context.go
}

// Build constructs the index over the slab's rows with the given metric.
func Build(rs *rows.Slab, metric vecmath.Metric, cfg Config) (*Index, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if rs == nil || rs.Len() == 0 {
		return nil, fmt.Errorf("hnsw: empty dataset")
	}
	ix := newIndex(rs, metric, cfg)
	n := ix.rv.Len()
	ix.levels = make([]int, n)
	ix.adj = adjacency{
		base:  blocks{stride: 1 + cfg.MaxDegree}.grown(n),
		upper: make([][][]uint32, n),
	}
	ix.maxLevel = -1
	ix.memo = newPruneMemo(n, cfg.MaxDegree)
	rng := stats.NewRNG(cfg.Seed)
	mL := 1 / math.Log(float64(cfg.M))
	for i := range ix.levels {
		lvl := int(-math.Log(1-rng.Float64()) * mL)
		ix.levels[i] = lvl
		ix.adj.upper[i] = upperLists(lvl)
		ix.insert(uint32(i))
	}
	ix.memo = pruneMemo{}
	return ix, nil
}

// newIndex is what Build and FromSnapshot share.
func newIndex(rs *rows.Slab, metric vecmath.Metric, cfg Config) *Index {
	return &Index{cfg: cfg, metric: metric, rows: rs, rv: rs.View(),
		kern: vecmath.Active().RowKernel(rs.Elem(), metric)}
}

// upperLists returns the empty adjacency lists of a node's levels >= 1: nil
// for the level-0 majority.
func upperLists(lvl int) [][]uint32 {
	if lvl == 0 {
		return nil
	}
	return make([][]uint32, lvl)
}

// rowDist is the construction-time comparison-space distance between two
// rows, SquaredL2 (L2) or -Dot (IP, cosine) on their values: construction
// only ever compares these against each other, so the sqrt-free kernel (a
// strictly monotone transform of the true distance) gives the same
// orderings cheaper.
// The typed kernel returns the float32 reference's bits at every dispatch
// level (vecmath/rowkernels.go), so graphs built on any CPU are identical.
func (ix *Index) rowDist(a, b []byte) float64 {
	d := ix.kern(a, b)
	if ix.metric != vecmath.L2 {
		d = -d
	}
	return d
}

// dist is rowDist between the row q and node a's.
func (ix *Index) dist(a uint32, q []byte) float64 { return ix.rowDist(q, ix.rv.Row(a)) }

// insert adds node id to the graph (its level is already assigned).
func (ix *Index) insert(id uint32) {
	lvl := ix.levels[id]
	if ix.maxLevel < 0 {
		ix.entry = id
		ix.maxLevel = lvl
		return
	}
	q := ix.rv.Row(id)
	cur := ix.entry
	curDist := ix.dist(cur, q)
	// Greedy descent through layers above the insertion level.
	for l := ix.maxLevel; l > lvl; l-- {
		cur, curDist = ix.greedyLayer(q, cur, curDist, l)
	}
	// Beam search on each layer from min(lvl,maxLevel) down, then connect
	// from the base layer up. A layer's search and connects touch that
	// layer's lists only, so the graph is the one connecting inside the
	// search loop builds; but on a live index a traversal routed onto the new
	// node at layer l descends through its lists below l, which must already
	// be linked or it dead-ends there with a short answer.
	eps := []Neighbor{{ID: cur, Dist: curDist}}
	top := lvl
	if top > ix.maxLevel {
		top = ix.maxLevel
	}
	selected := make([][]Neighbor, top+1)
	for l := top; l >= 0; l-- {
		w := ix.searchLayerExact(q, eps, ix.cfg.EfConstruction, l)
		selected[l] = ix.selectHeuristic(nil, w, ix.cfg.M, nil)
		eps = w
	}
	for l, sel := range selected {
		for _, n := range sel {
			ix.connect(id, n, l)
			// n.Dist is d(id, n.ID), and the kernel is symmetric.
			ix.connect(n.ID, Neighbor{ID: id, Dist: n.Dist}, l)
		}
	}
	if lvl > ix.maxLevel {
		ix.maxLevel = lvl
		ix.entry = id
	}
}

// greedyLayer performs the hill-climbing descent used on upper layers.
func (ix *Index) greedyLayer(q []byte, cur uint32, curDist float64, level int) (uint32, float64) {
	for {
		improved := false
		for _, nb := range ix.adj.list(cur, level) {
			d := ix.dist(nb, q)
			if d < curDist {
				cur, curDist = nb, d
				improved = true
			}
		}
		if !improved {
			return cur, curDist
		}
	}
}

// searchLayerExact is the construction-time beam search (always exact), on
// the search beam's frontier with every entry passing. The build keeps the
// textbook pair's first-come tie rule: a newcomer joins a full result set
// only when it is strictly closer than the worst result, where the frontier
// alone would also admit one at the worst's distance and a smaller id; so
// the caller admits d < threshold() once the set is full. The entry points
// go in unconditionally, as the pair pushes them all and trims to ef in
// (Dist, ID) order, which the frontier's own rule keeps. The frontier's
// expansion order and its result set are then the pair's
// (TestBuildMatchesReference).
func (ix *Index) searchLayerExact(q []byte, eps []Neighbor, ef, level int) []Neighbor {
	ctx := ix.getCtx(len(ix.levels))
	defer ix.putCtx(ctx)
	visited := &ctx.vis
	front := &ctx.front
	front.reset(ef)
	for _, ep := range eps {
		if !visited.testAndSet(ep.ID) {
			front.push(ep.ID, ep.Dist, true)
		}
	}
	for {
		c, ok := front.next()
		if !ok {
			break // what the pair still holds lies beyond the worst result
		}
		for _, nb := range ix.adj.list(c, level) {
			if visited.testAndSet(nb) {
				continue
			}
			if d := ix.dist(nb, q); front.worst < 0 || d < front.threshold() {
				front.push(nb, d, true)
			}
		}
	}
	return front.answer(ef, nil)
}

// selectHeuristic implements the neighbor selection heuristic (Algorithm 4
// of the HNSW paper): keep a candidate only if it is closer to the query
// than to every already-selected neighbor, which spreads edges across
// clusters. cands are sorted ascending by distance; the kept ones are
// appended to dst[:0] in the order kept, or cands itself is returned when
// all of them fit. Without a working set a candidate's ID names its node;
// with one (connect's), it names the candidate's slot in w.
func (ix *Index) selectHeuristic(dst, cands []Neighbor, m int, w []workSlot) []Neighbor {
	if len(cands) <= m {
		return cands
	}
	out := dst[:0]
	for _, c := range cands {
		if len(out) >= m {
			break
		}
		good := true
		for _, s := range out {
			if ix.occludes(w, c, s) {
				good = false
				break
			}
		}
		if good {
			out = append(out, c)
		}
	}
	// Fill remaining slots with nearest skipped candidates. The kept ones
	// are a subsequence of cands, so one walk tells them apart.
	if kept := len(out); kept < m {
		j := 0
		for _, c := range cands {
			if len(out) >= m {
				break
			}
			if j < kept && out[j].ID == c.ID {
				j++
				continue
			}
			out = append(out, c)
		}
	}
	return out
}

// occludes reports whether the kept candidate s occludes c: c lies closer
// to s than to the node being linked. Over connect's working set a pair the
// masks know costs no distance, and one computed fills both directions.
func (ix *Index) occludes(w []workSlot, c, s Neighbor) bool {
	if w == nil {
		return ix.rowDist(ix.rv.Row(c.ID), ix.rv.Row(s.ID)) < c.Dist
	}
	wc, ws := &w[c.ID], &w[s.ID]
	masks := len(w) <= 64
	if masks && wc.known>>s.ID&1 != 0 {
		return wc.occl>>s.ID&1 != 0
	}
	d := ix.rowDist(ix.rv.Row(wc.id), ix.rv.Row(ws.id))
	if masks {
		wc.known |= 1 << s.ID
		ws.known |= 1 << c.ID
		if d < wc.dist {
			wc.occl |= 1 << s.ID
		}
		if d < ws.dist {
			ws.occl |= 1 << c.ID
		}
	}
	return d < wc.dist
}

// connect adds dst.ID to src's neighbor list at level, pruning to
// MaxDegree with the selection heuristic when the list overflows. The new
// list is built in scratch and installed by setNeighbors, the one place a
// list is written.
//
// Pruning ranks the list's members and the newcomer (its working set, by
// slot) by their distance to src. Where the memo holds src's list, it
// supplies the members' distances and the pair tests of earlier prunings,
// dst.Dist is d(src, dst.ID), and the memo is rewritten in the new list's
// order. Elsewhere (an upper level, a live Insert, Repair) the memo is
// empty and every distance comes from the kernel.
func (ix *Index) connect(src uint32, dst Neighbor, level int) {
	if src == dst.ID {
		return
	}
	lst := ix.adj.list(src, level) // the writer reads its own lists unlocked
	if slices.Contains(lst, dst.ID) {
		return
	}
	held, holds := ix.memo.held(src, level, len(lst))
	if len(lst) < ix.cfg.MaxDegree {
		if holds {
			ix.memo.append(src, len(lst), dst.Dist)
		}
		ix.sel = append(append(ix.sel[:0], lst...), dst.ID)
		ix.setNeighbors(src, level, ix.sel)
		return
	}
	row := ix.rv.Row(src)
	w := ix.work[:0]
	for i, n := range lst {
		s := workSlot{id: n}
		if holds {
			s.memoSlot = held[i]
		} else {
			s.dist = ix.dist(n, row)
		}
		w = append(w, s)
	}
	if !holds {
		dst.Dist = ix.dist(dst.ID, row)
	}
	w = append(w, workSlot{id: dst.ID, memoSlot: memoSlot{dist: dst.Dist}})
	cands := ix.cands[:0]
	for i, s := range w {
		cands = append(cands, Neighbor{ID: uint32(i), Dist: s.dist})
	}
	sortNeighbors(cands)
	kept := ix.selectHeuristic(ix.kept, cands, ix.cfg.MaxDegree, w)
	nl := ix.sel[:0]
	for _, k := range kept {
		nl = append(nl, w[k.ID].id)
	}
	if holds {
		ix.memo.store(src, w, kept)
	}
	ix.sel, ix.work, ix.cands, ix.kept = nl, w, cands, kept
	ix.setNeighbors(src, level, nl)
}

// setNeighbors replaces id's list at level with a copy of nl (at most
// MaxDegree ids): level 0 is rewritten in place in its block, an upper list
// is swapped for a fresh one. On a live index the write happens under the
// node's stripe lock, the lock every reader holds while it reads the list
// (mutate.go has the argument).
func (ix *Index) setNeighbors(id uint32, level int, nl []uint32) {
	if level > 0 {
		nl = slices.Clone(nl)
	}
	if ix.live != nil {
		mu := &ix.live.stripes[id&stripeMask]
		mu.Lock()
		defer mu.Unlock()
	}
	if level == 0 {
		setList(ix.adj.base.at(id), nl)
	} else {
		ix.adj.upper[id][level-1] = nl
	}
}

// sortNeighbors sorts ascending by distance (insertion sort; lists are
// bounded by MaxDegree+1).
func sortNeighbors(ns []Neighbor) {
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && ns[j].Dist < ns[j-1].Dist; j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}

// The pruning memo. A node's level-0 list overflows again and again during
// Build, and each time connect ranks the same members by the same
// distances and the heuristic asks again whether one member occludes
// another. Rows never change, so neither answer does: the memo keeps them,
// per node and member, and a pruning computes only the pairs the heuristic
// reaches that no earlier pruning did — in practice those of the newcomer.
// The distances are the kernel's, and the kernel is symmetric bit for bit
// (vecmath/rowkernels.go), so d(a, b) computed once serves both as d(b, a)
// and for both directions of a pair: the graph is the one recomputing every
// distance builds.
//
// A member's pair tests are bits of a uint64 by the other member's slot,
// so a memo holds lists of at most 63 members (MaxDegree + 1 slots during a
// pruning); past that Build runs with the empty memo, as Insert and Repair
// always do. While Build runs, only connect writes a level-0 list, and it
// updates the memo with every write, so a node's slots are its list's
// members in list order; the memo keeps no ids of its own.

// memoSlot is what pruning knows of one member of a node's list: its
// distance to the node, which of the pairs it forms with the other members
// (by slot) are known, and which of those occlude it. 24 bytes.
type memoSlot struct {
	dist        float64
	known, occl uint64
}

// workSlot is one candidate of a pruning: its node and what the memo knows
// of it.
type workSlot struct {
	id uint32
	memoSlot
}

// pruneMemo holds every node's level-0 memo slots, in list order; the zero
// value is the empty memo.
type pruneMemo struct {
	width int        // slots per node: MaxDegree, or 0
	count []uint8    // slots in use per node
	slots []memoSlot // width per node
}

// newPruneMemo returns the memo of a build of n nodes, empty when the
// pruning's MaxDegree + 1 slots do not fit a uint64.
func newPruneMemo(n, maxDegree int) pruneMemo {
	if maxDegree >= 64 {
		return pruneMemo{}
	}
	return pruneMemo{width: maxDegree, count: make([]uint8, n), slots: make([]memoSlot, n*maxDegree)}
}

// held returns src's memo slots for its list of n members at level, and
// whether the memo holds that list: at level 0 while Build runs, and then
// only if its count agrees.
func (pm *pruneMemo) held(src uint32, level, n int) ([]memoSlot, bool) {
	if level > 0 || pm.width == 0 || int(pm.count[src]) != n {
		return nil, false
	}
	o := int(src) * pm.width
	return pm.slots[o : o+n], true
}

// append records a member at distance dist joining src's list of n
// members without a pruning.
func (pm *pruneMemo) append(src uint32, n int, dist float64) {
	pm.slots[int(src)*pm.width+n] = memoSlot{dist: dist}
	pm.count[src] = uint8(n + 1)
}

// store makes src's memo the pruned list kept (Neighbors whose IDs are
// slots of w), renumbering every pair mask from w's slots to the list's.
func (pm *pruneMemo) store(src uint32, w []workSlot, kept []Neighbor) {
	var pos [64]uint8 // w's slot → 1 + its position in the new list, 0 if pruned
	for a, k := range kept {
		pos[k.ID] = uint8(a + 1)
	}
	renumber := func(bits uint64) (out uint64) {
		for ; bits != 0; bits &= bits - 1 {
			if p := pos[mathbits.TrailingZeros64(bits)]; p != 0 {
				out |= 1 << (p - 1)
			}
		}
		return out
	}
	o := int(src) * pm.width
	for a, k := range kept {
		s := w[k.ID]
		pm.slots[o+a] = memoSlot{dist: s.dist, known: renumber(s.known), occl: renumber(s.occl)}
	}
	pm.count[src] = uint8(len(kept))
}
