package hnsw

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"ansmet/internal/dataset"
	"ansmet/internal/engine"
	"ansmet/internal/rows"
)

// buildLive builds an index over the first `base` of n SIFT vectors and
// inserts the rest live, returning the dataset and the index.
func buildLive(t *testing.T, n, base int) (*dataset.Dataset, *Index) {
	t.Helper()
	return buildLiveProfile(t, "SIFT", n, base)
}

// buildLiveProfile is buildLive over a named dataset profile.
func buildLiveProfile(t *testing.T, profile string, n, base int) (*dataset.Dataset, *Index) {
	t.Helper()
	p := dataset.ProfileByName(profile)
	ds := dataset.Generate(p, n, 20, 42)
	cfg := Config{M: 8, MaxDegree: 16, EfConstruction: 100, Seed: 1}
	ix, err := Build(rows.MustPack(ds.Vectors[:base], p.Elem), p.Metric, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ix.EnableMutation()
	for i := base; i < n; i++ {
		if id := appendInsert(t, ix, ds.Vectors[i]); id != uint32(i) {
			t.Fatalf("Insert %d returned id %d", i, id)
		}
	}
	return ds, ix
}

// appendInsert grows a live index by one vector the way its owner does: the
// row into the slab the index was built over, then the node.
func appendInsert(t testing.TB, ix *Index, v []float32) uint32 {
	t.Helper()
	if _, err := ix.rows.Append(v); err != nil {
		t.Fatal(err)
	}
	return ix.Insert()
}

func TestInsertGrowsSearchableGraph(t *testing.T) {
	ds, ix := buildLive(t, 600, 300)
	if ix.Size() != 600 {
		t.Fatalf("Size %d, want 600", ix.Size())
	}
	// Graph invariants hold across the build/insert boundary.
	for i := 0; i < 600; i++ {
		for l := 0; l <= ix.Level(uint32(i)); l++ {
			nbs := ix.Neighbors(uint32(i), l)
			if len(nbs) > 16 {
				t.Fatalf("node %d level %d degree %d > cap", i, l, len(nbs))
			}
			for _, nb := range nbs {
				if int(nb) >= 600 {
					t.Fatalf("edge to nonexistent node %d", nb)
				}
				if nb == uint32(i) {
					t.Fatalf("self loop at node %d", i)
				}
			}
		}
	}
	// Inserted vectors are found: searching for an inserted vector itself
	// must return it at distance 0.
	eng := engine.NewExact(ds.Vectors, ds.Profile.Metric, ds.Profile.Elem)
	missed := 0
	for i := 300; i < 600; i++ {
		res := ix.SearchFilteredInto(ds.Vectors[i], 1, 64, 1, nil, eng, nil, nil)
		if len(res) == 0 || res[0].ID != uint32(i) || res[0].Dist != 0 {
			missed++
		}
	}
	if missed > 3 { // beam search is approximate; self-recall must be near-perfect
		t.Fatalf("%d/300 inserted vectors not self-retrievable", missed)
	}
	// And overall recall against ground truth stays reasonable.
	gt := ds.GroundTruth(10)
	sum := 0.0
	for qi, q := range ds.Queries {
		res := ix.SearchFilteredInto(q, 10, 100, 1, nil, eng, nil, nil)
		got := make([]uint32, len(res))
		for i, n := range res {
			got[i] = n.ID
		}
		sum += dataset.RecallAtK(got, gt[qi])
	}
	if r := sum / float64(len(ds.Queries)); r < 0.85 {
		t.Fatalf("recall@10 after live inserts = %.3f", r)
	}
}

// TestInsertDeterministic is the WAL-replay property at the graph layer:
// re-inserting the same ids into the same base graph yields a bit-identical
// graph, because levels derive from hash(seed, id), not RNG draw order.
func TestInsertDeterministic(t *testing.T) {
	_, a := buildLive(t, 400, 200)
	_, b := buildLive(t, 400, 200)
	sa, sb := a.Snapshot(), b.Snapshot()
	if sa.Entry != sb.Entry || sa.MaxLevel != sb.MaxLevel {
		t.Fatalf("entry/maxLevel diverged: (%d,%d) vs (%d,%d)", sa.Entry, sa.MaxLevel, sb.Entry, sb.MaxLevel)
	}
	if !reflect.DeepEqual(sa.Levels, sb.Levels) {
		t.Fatal("levels diverged across identical insert sequences")
	}
	if !reflect.DeepEqual(sa.Neighbors, sb.Neighbors) {
		t.Fatal("adjacency diverged across identical insert sequences")
	}
}

func TestRepairExcisesDeleted(t *testing.T) {
	_, ix := buildLive(t, 400, 300)
	dead := map[uint32]bool{}
	var deleted []uint32
	for id := uint32(10); id < 400; id += 37 {
		if id == ix.Entry() {
			continue
		}
		dead[id] = true
		deleted = append(deleted, id)
	}
	ix.Repair(deleted, func(id uint32) bool { return !dead[id] })
	// No walk from the entry point, over any level's edges, reaches a
	// deleted node (which keeps its own out-edges: see
	// TestRepairLeavesExcisedNodeRoutable).
	seen := map[uint32]bool{ix.Entry(): true}
	for queue := []uint32{ix.Entry()}; len(queue) > 0; queue = queue[1:] {
		id := queue[0]
		if dead[id] {
			t.Fatalf("deleted node %d is reachable from the entry point", id)
		}
		for l := 0; l <= ix.Level(id); l++ {
			for _, nb := range ix.Neighbors(id, l) {
				if !seen[nb] {
					seen[nb] = true
					queue = append(queue, nb)
				}
			}
		}
	}
	for i := uint32(0); i < 400; i++ {
		if dead[i] {
			continue
		}
		for l := 0; l <= ix.Level(i); l++ {
			for _, nb := range ix.Neighbors(i, l) {
				if dead[nb] {
					t.Fatalf("node %d level %d still points at deleted %d", i, l, nb)
				}
			}
		}
	}
}

// parkEngine runs a callback before each comparison. Embedding the Engine
// interface hides engine.Batcher, so the traversal compares id by id.
type parkEngine struct {
	engine.Engine
	onCompare func(id uint32)
}

func (p *parkEngine) Compare(id uint32, threshold float64) engine.Result {
	p.onCompare(id)
	return p.Engine.Compare(id, threshold)
}

// TestRepairLeavesExcisedNodeRoutable is the repair/traversal race made
// deterministic on one goroutine: a traversal is parked on a node, Repair
// excises that node, and the traversal must still walk off it to a full
// answer — the node keeps its out-edges (routable), the tombstone filter
// keeps it out of the results (not returnable). A Repair that clears the
// node's own lists strands the traversal with 0 results.
func TestRepairLeavesExcisedNodeRoutable(t *testing.T) {
	for _, batch := range []int{1, 8} {
		ds, ix := buildLive(t, 600, 300)
		eng := engine.NewExact(ds.Vectors, ds.Profile.Metric, ds.Profile.Elem)
		dead := map[uint32]bool{}
		alive := func(id uint32) bool { return !dead[id] }
		excise := func(id uint32) {
			dead[id] = true
			ix.Repair([]uint32{id}, alive)
		}
		check := func(what string, victim uint32, res []Neighbor) {
			t.Helper()
			if len(res) != 10 {
				t.Fatalf("batch %d, %s victim %d: %d results, want 10", batch, what, victim, len(res))
			}
			for _, r := range res {
				if dead[r.ID] {
					t.Fatalf("batch %d, %s victim %d: excised node %d returned", batch, what, victim, r.ID)
				}
			}
		}

		// Base layer: the filter's first call names the base-layer start node
		// after it was chosen and before it is expanded.
		parked := 0
		for _, q := range ds.Queries {
			first, victim := true, uint32(0)
			res := ix.SearchFilteredInto(q, 10, 64, batch, func(id uint32) bool {
				if first && id != ix.Entry() { // Repair never excises the entry point
					victim = id
					excise(id)
					parked++
				}
				first = false
				return alive(id)
			}, eng, nil, nil)
			check("base-layer", victim, res)
		}
		if parked < len(ds.Queries)/2 {
			t.Fatalf("batch %d: only %d of %d traversals were parked on a base-layer start", batch, parked, len(ds.Queries))
		}

		// Upper layers: a query for the victim's own vector steps onto the
		// victim the moment it is first compared, during the greedy descent;
		// excising it right then leaves the descent standing on it above the
		// base layer. Victims are the upper-layer nodes whose own query's
		// descent does end on them (a dry run tells).
		parked = 0
		for v := uint32(0); v < 600 && parked < 10; v++ {
			if ix.Level(v) < 1 || v == ix.Entry() || dead[v] {
				continue
			}
			start, seen := uint32(0), false
			ix.SearchFilteredInto(ds.Vectors[v], 10, 64, batch, func(id uint32) bool {
				if !seen {
					start, seen = id, true
				}
				return alive(id)
			}, eng, nil, nil)
			if start != v {
				continue
			}
			pe := &parkEngine{Engine: eng, onCompare: func(id uint32) {
				if id == v && !dead[v] {
					excise(v)
					parked++
				}
			}}
			check("upper-layer", v, ix.SearchFilteredInto(ds.Vectors[v], 10, 64, batch, alive, pe, nil, nil))
		}
		if parked < 10 {
			t.Fatalf("batch %d: only %d traversals were parked on an upper-layer node", batch, parked)
		}
	}
}

// TestConcurrentInsertSearch drives searches while a single writer inserts
// and repairs; run under -race this is the package-level linearizability
// smoke test (the Database-level one lives in the root package).
func TestConcurrentInsertSearch(t *testing.T) {
	p := dataset.ProfileByName("SIFT")
	ds := dataset.Generate(p, 800, 20, 7)
	cfg := Config{M: 8, MaxDegree: 16, EfConstruction: 60, Seed: 1}
	ix, err := Build(rows.MustPack(ds.Vectors[:400], p.Elem), p.Metric, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ix.EnableMutation()
	// The readers compare against the slab the writer is appending to.
	eng := func() engine.Engine { return engine.NewExactOver(ix.rows, p.Metric) }

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e := eng()
			var dst []Neighbor
			for qi := 0; ; qi++ {
				select {
				case <-stop:
					return
				default:
				}
				q := ds.Queries[(qi+w)%len(ds.Queries)]
				bound := ix.Size()
				dst = ix.SearchFilteredInto(q, 10, 64, 1, nil, e, nil, dst)
				for _, r := range dst {
					if int(r.ID) >= bound+400 { // generous: bound raced upward
						t.Errorf("result id %d far beyond published count %d", r.ID, bound)
						return
					}
					if math.IsNaN(r.Dist) {
						t.Error("NaN distance from concurrent search")
						return
					}
				}
			}
		}(w)
	}
	for i := 400; i < 800; i++ {
		appendInsert(t, ix, ds.Vectors[i])
		if i%97 == 0 {
			ix.Repair([]uint32{uint32(i - 50)}, func(id uint32) bool { return id != uint32(i-50) })
		}
	}
	close(stop)
	wg.Wait()
}
