package hnsw

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"ansmet/internal/rows"
	"ansmet/internal/stats"
	"ansmet/internal/vecmath"
)

// The reference build: construction as it was before the pruning memo —
// searchLayerExact, selectHeuristic and connect verbatim, renamed, with the
// insert and the build loop that call them. Every distance is computed
// where it is needed, so a graph Build makes must equal this one list for
// list.

func refBuild(rs *rows.Slab, metric vecmath.Metric, cfg Config) (*Index, error) {
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
		ix.refInsert(uint32(i))
	}
	return ix, nil
}

// refLiveInsert is Insert over refInsert.
func (ix *Index) refLiveInsert() uint32 {
	id := uint32(len(ix.levels))
	ix.rv = ix.rows.View()
	lvl := levelFor(ix.cfg.Seed, id, 1/math.Log(float64(ix.cfg.M)))
	ix.levels = append(ix.levels, lvl)
	ix.adj.upper = append(ix.adj.upper, upperLists(lvl))
	ix.adj.base = ix.adj.base.grown(len(ix.levels))
	ix.publish()
	ix.live.count.Store(int64(id) + 1)
	ix.refInsert(id)
	ix.live.epoch.Store(packEpoch(ix.entry, ix.maxLevel))
	return id
}

func (ix *Index) refInsert(id uint32) {
	lvl := ix.levels[id]
	if ix.maxLevel < 0 {
		ix.entry = id
		ix.maxLevel = lvl
		return
	}
	q := ix.rv.Row(id)
	cur := ix.entry
	curDist := ix.dist(cur, q)
	for l := ix.maxLevel; l > lvl; l-- {
		cur, curDist = ix.greedyLayer(q, cur, curDist, l)
	}
	eps := []Neighbor{{ID: cur, Dist: curDist}}
	top := lvl
	if top > ix.maxLevel {
		top = ix.maxLevel
	}
	selected := make([][]Neighbor, top+1)
	for l := top; l >= 0; l-- {
		w := ix.refSearchLayerExact(q, eps, ix.cfg.EfConstruction, l)
		selected[l] = ix.refSelectHeuristic(q, w, ix.cfg.M)
		eps = w
	}
	for l, sel := range selected {
		for _, n := range sel {
			ix.refConnect(id, n.ID, l)
			ix.refConnect(n.ID, id, l)
		}
	}
	if lvl > ix.maxLevel {
		ix.maxLevel = lvl
		ix.entry = id
	}
}

func (ix *Index) refSearchLayerExact(q []byte, eps []Neighbor, ef, level int) []Neighbor {
	ctx := ix.getCtx(len(ix.levels))
	defer ix.putCtx(ctx)
	visited := &ctx.vis
	cand := &Heap{}             // the build's heaps left searchContext
	results := &Heap{Max: true} // for the frontier; the reference keeps them
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

func (ix *Index) refSelectHeuristic(q []byte, cands []Neighbor, m int) []Neighbor {
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

func (ix *Index) refConnect(src, dst uint32, level int) {
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
		sel := ix.refSelectHeuristic(row, cands, ix.cfg.MaxDegree)
		nl = nl[:0]
		for _, s := range sel {
			nl = append(nl, s.ID)
		}
	}
	ix.sel = nl
	ix.setNeighbors(src, level, nl)
}

// sameGraph fails unless got and want have the same levels, entry point,
// top level and lists, in order, at every level of every node. It also
// reports how many level-0 lists of want are full, which says whether
// pruning ran at all.
func sameGraph(t *testing.T, label string, got, want *Index) (full int) {
	t.Helper()
	if got.entry != want.entry || got.maxLevel != want.maxLevel || !slices.Equal(got.levels, want.levels) {
		t.Fatalf("%s: entry %d top %d, reference entry %d top %d (levels equal: %v)", label,
			got.entry, got.maxLevel, want.entry, want.maxLevel, slices.Equal(got.levels, want.levels))
	}
	for i, lvl := range want.levels {
		id := uint32(i)
		for l := 0; l <= lvl; l++ {
			g, w := got.adj.list(id, l), want.adj.list(id, l)
			if !slices.Equal(g, w) {
				t.Fatalf("%s: node %d level %d lists %v, reference %v", label, id, l, g, w)
			}
		}
		if len(want.adj.list(id, 0)) == want.cfg.MaxDegree {
			full++
		}
	}
	return full
}

// buildRows draws n vectors of dim elements of type et, quantized, with
// every fifth a copy of an earlier one and, when coarse, the values on a
// grid of a few steps, so distances tie often and the stable sort's order
// among equal distances decides lists.
func buildRows(rng *rand.Rand, et vecmath.ElemType, m vecmath.Metric, n, dim int, coarse bool) [][]float32 {
	vs := make([][]float32, n)
	for i := range vs {
		if i > 0 && i%5 == 0 {
			vs[i] = slices.Clone(vs[rng.Intn(i)])
			continue
		}
		v := make([]float32, dim)
		for j := range v {
			x := float32(rng.NormFloat64())
			if coarse {
				x = float32(rng.Intn(4))
			}
			switch et {
			case vecmath.Uint8:
				x = x*40 + 100
			case vecmath.Int8:
				x *= 30
			}
			v[j] = x
		}
		if m == vecmath.Cosine {
			vecmath.Normalize(v)
		}
		for j := range v {
			v[j] = et.Quantize(v[j])
		}
		vs[i] = v
	}
	return vs
}

// checkBuildMatchesReference builds vs both ways and compares the graphs;
// then, when live, grows both by the same rows through Insert.
func checkBuildMatchesReference(t *testing.T, label string, et vecmath.ElemType, m vecmath.Metric, cfg Config, vs [][]float32, live int) int {
	t.Helper()
	base := vs[:len(vs)-live]
	got, err := Build(rows.MustPack(base, et), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refBuild(rows.MustPack(base, et), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.memo.count != nil || got.memo.slots != nil || got.memo.width != 0 {
		t.Fatalf("%s: the index holds the pruning memo after Build", label)
	}
	full := sameGraph(t, label, got, want)
	if live == 0 {
		return full
	}
	got.EnableMutation()
	want.EnableMutation()
	for _, v := range vs[len(base):] {
		appendInsert(t, got, v)
		if _, err := want.rows.Append(v); err != nil {
			t.Fatal(err)
		}
		want.refLiveInsert()
	}
	sameGraph(t, label+" after live inserts", got, want)
	return full
}

// TestPruneMemoBytes bounds what the memo holds while Build runs: one
// count byte and MaxDegree 24-byte slots per node (385 B at MaxDegree 16),
// nothing when the pruning does not fit the masks.
func TestPruneMemoBytes(t *testing.T) {
	const n = 1000
	for _, deg := range []int{4, 16, 32, 63, 64} {
		pm := newPruneMemo(n, deg)
		got := len(pm.count) + cap(pm.slots)*int(unsafe.Sizeof(memoSlot{}))
		want := n * (1 + 24*deg)
		if deg >= 64 {
			want = 0
		}
		if got != want {
			t.Errorf("MaxDegree %d: the memo of %d nodes holds %d B, want %d", deg, n, got, want)
		}
	}
}

var (
	buildElems   = []vecmath.ElemType{vecmath.Uint8, vecmath.Int8, vecmath.Float16, vecmath.BFloat16, vecmath.Float32}
	buildMetrics = []vecmath.Metric{vecmath.L2, vecmath.InnerProduct, vecmath.Cosine}
)

// TestBuildMatchesReference: Build and the reference build make the same
// graph over every element type × metric at every MaxDegree either side of
// the pruning masks' widths (64 and up build with the empty memo), under
// several M and EfConstruction, over data with duplicated rows and tied
// distances; a few cases then grow both graphs by live inserts. Three
// larger builds (n = 2 000) run at the widths that matter most.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4343))
	degrees := []int{4, 8, 16, 31, 32, 33, 63, 64, 65}
	i := 0
	for _, et := range buildElems {
		for _, m := range buildMetrics {
			for _, deg := range degrees {
				cfg := Config{
					M:              []int{deg, max(2, deg/2), min(2*deg, 40)}[i%3],
					MaxDegree:      deg,
					EfConstruction: []int{deg/2 + 2, deg + 8, min(2*deg, 64), 100}[i%4],
					Seed:           uint64(i + 1),
				}
				n := 120 + 2*deg
				label := fmt.Sprintf("%v/%v/%+v", et, m, cfg)
				vs := buildRows(rng, et, m, n, 2+i%7, i%2 == 0)
				live := 0
				if i%4 == 1 {
					live = 40
				}
				if full := checkBuildMatchesReference(t, label, et, m, cfg, vs, live); full == 0 {
					t.Errorf("%s: no list reached MaxDegree: pruning never ran", label)
				}
				i++
			}
		}
	}
	for _, c := range []struct {
		et  vecmath.ElemType
		m   vecmath.Metric
		deg int
	}{{vecmath.Uint8, vecmath.L2, 16}, {vecmath.Float32, vecmath.InnerProduct, 32}, {vecmath.Int8, vecmath.L2, 64}} {
		cfg := Config{M: 16, MaxDegree: c.deg, EfConstruction: 40, Seed: 7}
		vs := buildRows(rng, c.et, c.m, 2000, 16, c.et == vecmath.Uint8)
		checkBuildMatchesReference(t, fmt.Sprintf("n=2000 %v/%v/%+v", c.et, c.m, cfg), c.et, c.m, cfg, vs, 0)
	}
}

// FuzzBuildMatchesReference builds small graphs both ways. shape picks the
// element type, metric, MaxDegree (2..69), M, EfConstruction and dimension;
// data's bytes are the vectors' elements, row after row.
func FuzzBuildMatchesReference(f *testing.F) {
	f.Add(uint64(0), []byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox"))
	f.Add(uint64(0x0000_0003_0040_0e91), make([]byte, 200))
	f.Add(uint64(0x0000_0001_1f20_0f2d), []byte{1, 2, 3, 4, 1, 2, 3, 4, 9, 9, 9, 9, 0, 0, 0, 0, 255, 128, 7, 1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, shape uint64, data []byte) {
		et := buildElems[shape%5]
		m := buildMetrics[shape/5%3]
		deg := 2 + int(shape>>8%68)
		cfg := Config{
			M:              2 + int(shape>>16%uint64(2*deg-1)),
			MaxDegree:      deg,
			EfConstruction: 1 + int(shape>>24%64),
			Seed:           shape >> 40,
		}
		dim := 1 + int(shape>>32%8)
		n := min(len(data)/dim, 400)
		if n == 0 {
			return
		}
		vs := make([][]float32, n)
		for i := range vs {
			vs[i] = make([]float32, dim)
			for j, b := range data[i*dim : (i+1)*dim] {
				x := float32(int8(b))
				switch et {
				case vecmath.Uint8:
					x = float32(b)
				case vecmath.Float16, vecmath.BFloat16, vecmath.Float32:
					x /= 16
				}
				vs[i][j] = et.Quantize(x)
			}
		}
		checkBuildMatchesReference(t, fmt.Sprintf("%v/%v/%+v dim %d", et, m, cfg, dim), et, m, cfg, vs, 0)
	})
}
