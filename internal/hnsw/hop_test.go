package hnsw

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"ansmet/internal/dataset"
	"ansmet/internal/engine"
	"ansmet/internal/rows"
	"ansmet/internal/stats"
	"ansmet/internal/trace"
)

// hiddenEngine is an engine seen through the Engine interface alone:
// embedding the interface hides engine.Batcher (as any wrapper does), so a
// search over it runs the per-id adapter. It counts its compares.
type hiddenEngine struct {
	engine.Engine
	compares int
}

func (h *hiddenEngine) Compare(id uint32, th float64) engine.Result {
	h.compares++
	return h.Engine.Compare(id, th)
}

// referenceSearch is the beam search as it was before a hop became
// gather-and-hint, one batch compare and one accept loop: one Compare per
// id at the moment its result is used, the engine's verdict taken as is,
// the result set bounded by push-then-pop. Kept as the reference the
// traversal — batched or through the adapter, recorded or not — is
// compared against: same results, same trace.
func referenceSearch(ix *Index, q []float32, k, ef, batch int, filter func(uint32) bool, eng engine.Engine, rec *trace.Query) []Neighbor {
	if ef < k {
		ef = k
	}
	if filter == nil {
		filter = alwaysAccept
	}
	v := ix.view()
	var ctx searchContext
	ctx.vis.reset(v.count)
	eng.StartQuery(q)
	entryRes := eng.Compare(v.entry, math.Inf(1))
	rec.BeginHop(v.maxLevel)
	rec.AddTask(v.entry, math.Inf(1), entryRes)
	rec.EndHop(2)
	cur, curDist := v.entry, entryRes.Dist
	for l := v.maxLevel; l >= 1; l-- {
		for {
			nbs := v.neighborsAt(cur, l, &ctx)
			if len(nbs) == 0 {
				break
			}
			rec.BeginHop(l)
			improved := false
			for _, nb := range nbs {
				res := eng.Compare(nb, curDist)
				rec.AddTask(nb, curDist, res)
				if res.Accepted && res.Dist < curDist {
					cur, curDist = nb, res.Dist
					improved = true
				}
			}
			rec.EndHop(1 + len(nbs))
			if !improved {
				break
			}
		}
	}
	visited, cand, results := &ctx.vis, &Heap{}, &Heap{Max: true}
	visited.testAndSet(cur)
	visited.testAndSet(v.entry)
	start := Neighbor{ID: cur, Dist: curDist}
	cand.Push(start)
	if filter(start.ID) {
		results.Push(start)
	}
	var ids []uint32
	for cand.Len() > 0 {
		ids = ids[:0]
		converged := false
		for popped := 0; popped < batch && cand.Len() > 0; popped++ {
			c := cand.Pop()
			if results.Len() >= ef && c.Dist > results.Top().Dist {
				converged = popped == 0
				break
			}
			for _, nb := range v.neighborsAt(c.ID, 0, &ctx) {
				if !visited.testAndSet(nb) {
					ids = append(ids, nb)
				}
			}
		}
		if converged {
			break
		}
		if len(ids) == 0 {
			continue
		}
		threshold := math.Inf(1)
		if results.Len() >= ef {
			threshold = results.Top().Dist
		}
		rec.BeginHop(0)
		for _, nb := range ids {
			res := eng.Compare(nb, threshold)
			rec.AddTask(nb, threshold, res)
			if res.Accepted {
				n := Neighbor{ID: nb, Dist: res.Dist}
				cand.Push(n)
				if filter(nb) {
					results.Push(n)
					if results.Len() > ef {
						results.Pop()
					}
				}
			}
		}
		rec.EndHop(2 + 2*len(ids))
	}
	out := make([]Neighbor, results.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = results.Pop()
	}
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func sameNeighbors(t *testing.T, label string, got, want []Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			t.Fatalf("%s: result %d is %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// hopGraph is one graph TestHopMatchesPerIDReference searches, with the
// dataset it was built over.
type hopGraph struct {
	label string
	ds    *dataset.Dataset
	ix    *Index
}

// hopGraphs builds SIFT and GloVe graphs, each immutable and live (after
// inserts and a repair), and a tie-heavy pair over u8 SIFT rows in which
// every vector appears twice, so equal distances straddle the ef boundary.
func hopGraphs(t *testing.T) []hopGraph {
	t.Helper()
	cfg := Config{M: 8, MaxDegree: 16, EfConstruction: 60, Seed: 1}
	var out []hopGraph
	for _, profile := range []string{"SIFT", "GloVe"} {
		ds, live := buildLiveProfile(t, profile, 700, 500)
		live.Repair([]uint32{11, 250, 610}, func(id uint32) bool { return id != 11 && id != 250 && id != 610 })
		immutable, err := Build(ds.Rows(), ds.Profile.Metric, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, hopGraph{profile + "/immutable", ds, immutable}, hopGraph{profile + "/live", ds, live})
	}
	ds := dataset.Generate(dataset.ProfileByName("SIFT"), 350, 20, 42)
	ds.Vectors = append(ds.Vectors, ds.Vectors...)
	immutable, err := Build(ds.Rows(), ds.Profile.Metric, cfg)
	if err != nil {
		t.Fatal(err)
	}
	live, err := Build(rows.MustPack(ds.Vectors[:500], ds.Profile.Elem), ds.Profile.Metric, cfg)
	if err != nil {
		t.Fatal(err)
	}
	live.EnableMutation()
	for _, v := range ds.Vectors[500:] {
		appendInsert(t, live, v)
	}
	return append(out, hopGraph{"SIFT-twice/immutable", ds, immutable}, hopGraph{"SIFT-twice/live", ds, live})
}

// TestHopMatchesPerIDReference: the batched hop (engine.Exact seen whole),
// the adapter (the same engine with the capability hidden) and a recorded
// search all return what the per-id reference loop returns, in ids and
// distance bits, and the recorded trace lists the same hops, tasks,
// thresholds and Results — on an immutable graph and on a live one after
// inserts and a repair, on rows where every distance is tied with another,
// at batch 1, 3 and 8, at ef = k, 64 and more than the graph holds, with
// no filter, one passing every other id and one passing 1 id in 13.
func TestHopMatchesPerIDReference(t *testing.T) {
	odd := func(id uint32) bool { return id%2 == 1 }
	sparse := func(id uint32) bool { return id%13 == 0 }
	for _, g := range hopGraphs(t) {
		exact := engine.NewExact(g.ds.Vectors, g.ds.Profile.Metric, g.ds.Profile.Elem)
		for _, batch := range []int{1, 3, 8} {
			for _, ef := range []int{10, 64, 1000} {
				for fi, filter := range []func(uint32) bool{nil, odd, sparse} {
					for qi, q := range g.ds.Queries {
						label := fmt.Sprintf("%s batch=%d ef=%d filter=%d q%d", g.label, batch, ef, fi, qi)
						var wantRec, gotRec trace.Query
						want := referenceSearch(g.ix, q, 10, ef, batch, filter, exact, &wantRec)
						if len(want) != 10 {
							t.Fatalf("%s: reference returned %d results", label, len(want))
						}
						sameNeighbors(t, label+" batched", g.ix.SearchFilteredInto(q, 10, ef, batch, filter, exact, nil, nil), want)
						hidden := &hiddenEngine{Engine: exact}
						sameNeighbors(t, label+" adapter", g.ix.SearchFilteredInto(q, 10, ef, batch, filter, hidden, nil, nil), want)
						sameNeighbors(t, label+" recorded", g.ix.SearchFilteredInto(q, 10, ef, batch, filter, exact, &gotRec, nil), want)
						if !reflect.DeepEqual(&gotRec, &wantRec) {
							t.Fatalf("%s: recorded trace differs from the per-id loop's (%d/%d hops, %d/%d tasks)",
								label, gotRec.NumHops(), wantRec.NumHops(), gotRec.TotalTasks(), wantRec.TotalTasks())
						}
						if hidden.compares != wantRec.TotalTasks() {
							t.Fatalf("%s: adapter issued %d compares, the per-id loop %d", label, hidden.compares, wantRec.TotalTasks())
						}
					}
				}
			}
		}
	}
}

// TestHeapReplaceTopMatchesPushPop: on a bounded heap, "replace the root
// when the newcomer goes below it, skip it otherwise" keeps what "push,
// then pop the root" keeps — the same root after every step and the same
// pop order at the end — on streams full of duplicate distances, where the
// id breaks the tie, and on both heap orders. Init over a slice pops as n
// pushes of its items do, and Sorted is that pop order reversed.
func TestHeapReplaceTopMatchesPushPop(t *testing.T) {
	r := stats.NewRNG(9)
	for _, max := range []bool{true, false} {
		pushed, inited, sorted := &Heap{Max: max}, &Heap{Max: max}, &Heap{Max: max}
		items := make([]Neighbor, 777)
		for i := range items {
			items[i] = Neighbor{ID: uint32(r.Intn(500)), Dist: float64(r.Intn(5))}
			pushed.Push(items[i])
		}
		inited.Init(append([]Neighbor(nil), items...))
		sorted.Init(items)
		rev := sorted.Sorted(items)
		for i := len(items) - 1; i >= 0; i-- {
			if a, b := pushed.Pop(), inited.Pop(); a != b || a != rev[i] {
				t.Fatalf("max=%v: %d from the end: pushed pops %+v, Init pops %+v, Sorted holds %+v", max, i, a, b, rev[i])
			}
		}
		for _, bound := range []int{1, 2, 7, 64} {
			pushPop, replace := &Heap{Max: max}, &Heap{Max: max}
			var all []Neighbor
			for i := 0; i < 2000; i++ {
				// Five distinct distances: almost every comparison is a tie.
				n := Neighbor{ID: uint32(r.Intn(500)), Dist: float64(r.Intn(5))}
				all = append(all, n)
				pushPop.Push(n)
				if pushPop.Len() > bound {
					pushPop.Pop()
				}
				switch {
				case replace.Len() < bound:
					replace.Push(n)
				case max && n.Less(replace.Top()), !max && replace.Top().Less(n):
					replace.ReplaceTop(n) // n goes below the root: the root leaves
				}
				if pushPop.Top() != replace.Top() {
					t.Fatalf("max=%v bound=%d step %d: roots %+v and %+v", max, bound, i, pushPop.Top(), replace.Top())
				}
			}
			// Model: the `bound` elements that sort last in pop order.
			sort.Slice(all, func(i, j int) bool {
				if max {
					return all[j].Less(all[i])
				}
				return all[i].Less(all[j])
			})
			want := all[len(all)-bound:]
			for i := 0; i < bound; i++ {
				a, b := pushPop.Pop(), replace.Pop()
				if a != b || a != want[i] {
					t.Fatalf("max=%v bound=%d pop %d: %+v, %+v, model %+v", max, bound, i, a, b, want[i])
				}
			}
		}
	}
}

// TestNeighborsAppendDoesNotAlias: a level-0 list handed out by an immutable
// index is a sub-slice of the node's block; appending to it must reallocate,
// not write into the block's spare slots or the next node's count.
func TestNeighborsAppendDoesNotAlias(t *testing.T) {
	_, ix := buildSmall(t, "SIFT", 300, 40)
	for id := uint32(0); id < 299; id++ {
		lst := ix.Neighbors(id, 0)
		if cap(lst) != len(lst) {
			t.Fatalf("node %d: list of %d ids has capacity %d", id, len(lst), cap(lst))
		}
		own := append([]uint32(nil), lst...)
		next := append([]uint32(nil), ix.Neighbors(id+1, 0)...)
		grown := append(lst, 0xdead, 0xbeef)
		_ = grown
		if got := ix.Neighbors(id, 0); !reflect.DeepEqual(got, own) {
			t.Fatalf("node %d: list changed under a caller's append: %v, was %v", id, got, own)
		}
		if got := ix.Neighbors(id+1, 0); !reflect.DeepEqual(got, next) {
			t.Fatalf("node %d: a caller's append to node %d's list changed it: %v, was %v", id+1, id, got, next)
		}
	}
	// The traversal's own view hands out the same clipped slices.
	v := ix.view()
	var ctx searchContext
	if lst := v.neighborsAt(0, 0, &ctx); cap(lst) != len(lst) {
		t.Fatalf("neighborsAt: list of %d ids has capacity %d", len(lst), cap(lst))
	}
}

// TestLiveInsertAcrossChunkBoundaries searches while the single writer
// inserts across two level-0 chunk boundaries (and repairs on the way): a
// reader holding an older chunk table must never follow an edge into a
// chunk it does not have, and under -race the in-place block writes must be
// ordered with every reader's copy by the stripe locks.
func TestLiveInsertAcrossChunkBoundaries(t *testing.T) {
	const base, total = chunkNodes - 60, 2*chunkNodes + 60
	p := dataset.ProfileByName("SIFT")
	ds := dataset.Generate(p, total, 8, 13)
	cfg := Config{M: 6, MaxDegree: 12, EfConstruction: 24, Seed: 3}
	ix, err := Build(rows.MustPack(ds.Vectors[:base], p.Elem), p.Metric, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ix.EnableMutation()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// One reader through the batched hop, the others per id.
			// Every reader compares against the slab the writer appends to.
			var eng engine.Engine = engine.NewExactOver(ix.rows, p.Metric)
			if w > 0 {
				eng = &hiddenEngine{Engine: eng}
			}
			var dst []Neighbor
			for qi := w; ; qi++ {
				select {
				case <-stop:
					return
				default:
				}
				dst = ix.SearchFilteredInto(ds.Queries[qi%len(ds.Queries)], 10, 48, 8, nil, eng, nil, dst)
				// A full answer every time: a traversal standing on a node
				// Repair excises still walks off it.
				if len(dst) != 10 {
					t.Errorf("search returned %d results, want 10", len(dst))
					return
				}
				for _, r := range dst {
					if int(r.ID) >= total || math.IsNaN(r.Dist) {
						t.Errorf("bad result %+v", r)
						return
					}
				}
			}
		}(w)
	}
	for i := base; i < total; i++ {
		if id := appendInsert(t, ix, ds.Vectors[i]); id != uint32(i) {
			t.Errorf("Insert %d returned id %d", i, id)
			break
		}
		if i%211 == 0 {
			d := uint32(i - 100)
			ix.Repair([]uint32{d}, func(id uint32) bool { return id != d })
		}
	}
	close(stop)
	wg.Wait()

	if got := len(ix.adj.base.chunks); got != 3 {
		t.Fatalf("%d nodes span %d chunks, want 3", total, got)
	}
	for i := uint32(0); i < total; i++ {
		for l := 0; l <= ix.Level(i); l++ {
			nbs := ix.Neighbors(i, l)
			if len(nbs) > cfg.MaxDegree {
				t.Fatalf("node %d level %d degree %d > %d", i, l, len(nbs), cfg.MaxDegree)
			}
			for _, nb := range nbs {
				if int(nb) >= total || nb == i {
					t.Fatalf("node %d level %d has edge to %d", i, l, nb)
				}
			}
		}
	}
}
