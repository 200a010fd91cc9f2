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

	// sel is connect's list-building scratch. Construction and mutation are
	// single-writer, so one buffer serves.
	sel []uint32

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
	rng := stats.NewRNG(cfg.Seed)
	mL := 1 / math.Log(float64(cfg.M))
	for i := range ix.levels {
		lvl := int(-math.Log(1-rng.Float64()) * mL)
		ix.levels[i] = lvl
		ix.adj.upper[i] = upperLists(lvl)
		ix.insert(uint32(i))
	}
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
// rows, Metric.SquaredDistance on their values: construction only ever
// compares these against each other, so the sqrt-free kernel (a strictly
// monotone transform of the true distance) gives the same orderings cheaper.
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
		selected[l] = ix.selectHeuristic(q, w, ix.cfg.M)
		eps = w
	}
	for l, sel := range selected {
		for _, n := range sel {
			ix.connect(id, n.ID, l)
			ix.connect(n.ID, id, l)
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

// searchLayerExact is the construction-time beam search (always exact).
func (ix *Index) searchLayerExact(q []byte, eps []Neighbor, ef, level int) []Neighbor {
	ctx := ix.getCtx(len(ix.levels))
	defer ix.putCtx(ctx)
	visited := &ctx.vis
	cand := &ctx.cand
	results := &ctx.results
	for _, ep := range eps {
		if visited.testAndSet(ep.ID) {
			continue
		}
		cand.Push(ep)
		results.Push(ep)
	}
	for results.Len() > ef {
		results.Pop()
	}
	for cand.Len() > 0 {
		c := cand.Pop()
		if results.Len() >= ef && c.Dist > results.Top().Dist {
			break
		}
		for _, nb := range ix.adj.list(c.ID, level) {
			if visited.testAndSet(nb) {
				continue
			}
			n := Neighbor{ID: nb, Dist: ix.dist(nb, q)}
			if results.Len() < ef {
				cand.Push(n)
				results.Push(n)
			} else if n.Dist < results.Top().Dist {
				cand.Push(n)
				results.ReplaceTop(n)
			}
		}
	}
	return results.Sorted(nil)
}

// selectHeuristic implements the neighbor selection heuristic (Algorithm 4
// of the HNSW paper): keep a candidate only if it is closer to the query
// than to every already-selected neighbor, which spreads edges across
// clusters.
func (ix *Index) selectHeuristic(q []byte, cands []Neighbor, m int) []Neighbor {
	if len(cands) <= m {
		return cands
	}
	var out []Neighbor
	for _, c := range cands { // cands are sorted ascending by distance
		if len(out) >= m {
			break
		}
		good := true
		for _, s := range out {
			if ix.rowDist(ix.rv.Row(c.ID), ix.rv.Row(s.ID)) < c.Dist {
				good = false
				break
			}
		}
		if good {
			out = append(out, c)
		}
	}
	// Fill remaining slots with nearest skipped candidates.
	if len(out) < m {
		chosen := make(map[uint32]bool, len(out))
		for _, s := range out {
			chosen[s.ID] = true
		}
		for _, c := range cands {
			if len(out) >= m {
				break
			}
			if !chosen[c.ID] {
				out = append(out, c)
			}
		}
	}
	return out
}

// connect adds dst to src's neighbor list at level, pruning to MaxDegree
// with the selection heuristic when the list overflows. The new list is
// built in scratch and installed by setNeighbors, the one place a list is
// written.
func (ix *Index) connect(src, dst uint32, level int) {
	if src == dst {
		return
	}
	lst := ix.adj.list(src, level) // the writer reads its own lists unlocked
	for _, n := range lst {
		if n == dst {
			return
		}
	}
	nl := append(append(ix.sel[:0], lst...), dst)
	if len(nl) > ix.cfg.MaxDegree {
		row := ix.rv.Row(src)
		cands := make([]Neighbor, len(nl))
		for i, n := range nl {
			cands[i] = Neighbor{ID: n, Dist: ix.dist(n, row)}
		}
		sortNeighbors(cands)
		sel := ix.selectHeuristic(row, cands, ix.cfg.MaxDegree)
		nl = nl[:0]
		for _, s := range sel {
			nl = append(nl, s.ID)
		}
	}
	ix.sel = nl
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
