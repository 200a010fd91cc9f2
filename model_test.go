package ansmet

// The structure this file pins: a Database owns its rows, graph and
// tombstones, and the NDP model is a view of them built by system() when a
// route asks — never by New, Load, Save, a mutation, journal replay or Stats,
// never twice, and at any moment of a mutable database's life.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ansmet/internal/core"
	"ansmet/internal/rows"
	"ansmet/internal/sim"
	"ansmet/internal/stats"
)

// smallVectors is n deterministic dim-8 vectors in [0.1, 0.9].
func smallVectors(n int) [][]float32 {
	vs := make([][]float32, n)
	for i := range vs {
		vs[i] = make([]float32, 8)
		for d := range vs[i] {
			vs[i][d] = float32(math.Sin(float64(i*8+d)))*0.4 + 0.5
		}
	}
	return vs
}

// TestDefaultPathBuildsNoModel walks an immutable and a mutable database
// through everything the default path does — every default route, a batch,
// every mutation, Stats, SaveFile, LoadFile with journal replay, Close — and
// finds no NDP model at any step; then one RouteNDP query attaches it.
func TestDefaultPathBuildsNoModel(t *testing.T) {
	vs := smallVectors(300)
	queries := smallVectors(305)[300:]
	ctx := context.Background()
	for _, mutable := range []bool{false, true} {
		t.Run(fmt.Sprintf("mutable=%v", mutable), func(t *testing.T) {
			db, err := New(vs, Options{Metric: L2, Elem: Float32, EfConstruction: 40, Seed: 7, Mutable: mutable, RepairEvery: 2})
			if err != nil {
				t.Fatal(err)
			}
			none := func(db *Database, step string) {
				t.Helper()
				if db.model.Load() != nil {
					t.Fatalf("%s built the NDP model", step)
				}
			}
			defaults := func(db *Database, label string) {
				t.Helper()
				soon, cancel := context.WithTimeout(ctx, time.Minute)
				defer cancel()
				for _, c := range []struct {
					name string
					ctx  context.Context
					q    Query
				}{
					{"host", ctx, Query{Route: RouteHost}},
					{"exact", ctx, Query{Route: RouteExact}},
					{"auto", ctx, Query{}},
					{"auto with a deadline", soon, Query{}},
					{"auto at budget 1", ctx, Query{Budget: 1}},
					{"auto with a filter", ctx, Query{Filter: func(id uint32) bool { return id%2 == 0 }}},
				} {
					c.q.Vector, c.q.K = queries[0], 5
					if res, err := db.Do(c.ctx, &c.q); err != nil || len(res.Neighbors) != 5 {
						t.Fatalf("%s %s: %d results, err %v", label, c.name, len(res.Neighbors), err)
					}
					none(db, label+" Do "+c.name)
				}
				if _, _, err := db.DoMany(ctx, queries, &Query{K: 5}, 2); err != nil {
					t.Fatal(err)
				}
				none(db, label+" DoMany")
			}
			mutate := func(db *Database, label string, victims ...uint32) {
				t.Helper()
				if !mutable {
					return
				}
				id, err := db.Add(queries[2])
				if err != nil {
					t.Fatal(err)
				}
				if id, err = db.Update(id, queries[3]); err != nil {
					t.Fatal(err)
				}
				for _, del := range append(victims, id) { // crosses RepairEvery
					if err := db.Delete(del); err != nil {
						t.Fatal(err)
					}
				}
				db.Maintain()
				none(db, label+" Add/Update/Delete/Maintain")
			}
			none(db, "New")
			path := filepath.Join(t.TempDir(), "db.snap")
			if mutable {
				if err := db.AttachWAL(WALName(path)); err != nil {
					t.Fatal(err)
				}
			}
			defaults(db, "built")
			mutate(db, "built", 4, 9)
			if st := db.Stats(); st.Vectors != db.Len() || st.Mutable != mutable {
				t.Fatalf("Stats without a model: %+v", st)
			}
			none(db, "Stats")
			if err := db.SaveFile(path); err != nil {
				t.Fatal(err)
			}
			mutate(db, "saved", 14, 19) // journal only: LoadFile below replays it
			none(db, "SaveFile")
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			none(db, "Close")

			back, err := LoadFile(path, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer back.Close()
			none(back, "LoadFile")
			if mutable && (back.Stats().WALReplayed == 0 || back.Len() != db.Len()) {
				t.Fatalf("LoadFile replayed %d records to %d vectors, want %d", back.Stats().WALReplayed, back.Len(), db.Len())
			}
			defaults(back, "loaded")
			mutate(back, "loaded", 24, 29)

			// One query on the ndp beam is what attaches the model.
			want, err := back.Do(ctx, &Query{Vector: queries[0], K: 5, Route: RouteHost})
			if err != nil {
				t.Fatal(err)
			}
			got, err := back.Do(ctx, &Query{Vector: queries[0], K: 5, Route: RouteNDP})
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "late ndp ≡ host", got.Neighbors, want.Neighbors)
			if back.model.Load() == nil {
				t.Fatal("RouteNDP left no model")
			}
		})
	}
}

// TestLazyModelBuildNeverFails: New accepted the input, so the build a route
// triggers later cannot fail — for every element type × metric, over 1, 2,
// 3 and 101 vectors (below and past the 100-vector sample), random and
// all-equal. One vector loads back from its snapshot, and both databases
// answer ndp ≡ host and tiered ≡ exact bit for bit. Every design's build
// over such sets is internal/core's TestNewSystemAllDesigns.
func TestLazyModelBuildNeverFails(t *testing.T) {
	rng := stats.NewRNG(5)
	random, constant := make([][]float32, 101), make([][]float32, 101)
	for i := range random {
		random[i], constant[i] = make([]float32, 8), []float32{3, 3, 3, 3, 3, 3, 3, 3}
		for d := range random[i] {
			random[i][d] = float32(rng.Intn(200)) - 60
		}
	}
	ctx := context.Background()
	for _, elem := range []ElemType{Uint8, Int8, Float16, BFloat16, Float32} {
		for _, metric := range []Metric{L2, InnerProduct, Cosine} {
			for _, n := range []int{1, 2, 3, 101} {
				k := min(2, n)
				for _, vs := range [][][]float32{random, constant} {
					label := fmt.Sprintf("%v/%v/n=%d", elem, metric, n)
					db, err := New(vs[:n], Options{Metric: metric, Elem: elem, EfConstruction: 20, Seed: 3})
					if err != nil {
						t.Fatalf("%s: New: %v", label, err)
					}
					if db.model.Load() != nil {
						t.Fatalf("%s: New built the model", label)
					}
					if _, err := db.buildModel(); err != nil {
						t.Fatalf("%s: the lazy build failed on an input New accepted: %v", label, err)
					}
					for _, r := range []Route{RouteNDP, RouteTiered} {
						res, err := db.Do(ctx, &Query{Vector: vs[0], K: k, Route: r})
						if err != nil || len(res.Neighbors) != k {
							t.Fatalf("%s %v: %d results, err %v", label, r, len(res.Neighbors), err)
						}
					}
					if n == 1 {
						oneVector(t, label, db, vs[1:3])
					}
				}
			}
		}
	}
}

// oneVector: a one-vector database answers every route with its vector,
// ndp ≡ host and tiered ≡ exact bit for bit, and so does its snapshot
// loaded back.
func oneVector(t *testing.T, label string, db *Database, queries [][]float32) {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatalf("%s: Save: %v", label, err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("%s: Load: %v", label, err)
	}
	for name, d := range map[string]*Database{"New": db, "Load": loaded} {
		for qi, q := range queries {
			got := routesOf(t, d, q, 1)
			for r, nn := range got {
				if len(nn) != 1 || nn[0].ID != 0 {
					t.Fatalf("%s %s q%d %v: %v", label, name, qi, r, nn)
				}
			}
			sameBits(t, fmt.Sprintf("%s %s q%d ndp ≡ host", label, name, qi), got[RouteNDP], got[RouteHost])
			sameBits(t, fmt.Sprintf("%s %s q%d tiered ≡ exact", label, name, qi), got[RouteTiered], got[RouteExact])
		}
	}
}

// TestZeroDimensionRejected: zero-length vectors are ErrDimension from New
// and NewCluster. They used to reach the layout search, whose schedule
// builder never returned on them (and a Base design built a database of
// nothing); the deadline turns a regression into a failure.
func TestZeroDimensionRejected(t *testing.T) {
	empty := [][]float32{{}, {}, {}}
	calls := map[string]func() error{
		"New": func() error { _, err := New(empty, Options{}); return err },
		"NewCluster": func() error {
			_, err := NewCluster(empty, ClusterOptions{Shards: 2})
			return err
		},
	}
	for name, call := range calls {
		done := make(chan error, 1)
		go func() { done <- call() }()
		select {
		case err := <-done:
			if !errors.Is(err, ErrDimension) {
				t.Errorf("%s: err = %v, want ErrDimension", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not return within 5 s", name)
		}
	}
}

// TestRunFiltersTombstones: the simulator's run over the database's model is
// the ndp beam with a trace recorder, so on a mutable database it leaves out
// deleted ids exactly as Do does.
func TestRunFiltersTombstones(t *testing.T) {
	vs := smallVectors(400)
	queries := smallVectors(406)[400:]
	db, err := New(vs, Options{Metric: L2, Elem: Float32, EfConstruction: 40, Seed: 7, Mutable: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, q := range queries {
		res, err := db.Do(ctx, &Query{Vector: q, K: 3, Ef: 40, Route: RouteHost})
		if err != nil {
			t.Fatal(err)
		}
		if !db.Deleted(res.Neighbors[0].ID) {
			if err := db.Delete(res.Neighbors[0].ID); err != nil { // every query loses its top hit
				t.Fatal(err)
			}
		}
	}
	m, err := sim.NewModel(db.System(), sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	run, err := m.Run(queries, 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		want, err := db.Do(ctx, &Query{Vector: q, K: 3, Ef: 40, Route: RouteNDP})
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("Run ≡ Do(ndp), query %d", qi), run.Results[qi], want.Neighbors)
		for _, n := range run.Results[qi] {
			if db.Deleted(n.ID) {
				t.Fatalf("query %d: Run returned tombstoned id %d", qi, n.ID)
			}
		}
	}
}

// TestSnapshotBytesUnchanged: the framing Save and SaveDir now share writes
// the bytes the two hand-written copies wrote. The hashes were recorded at
// the parent commit (943b7c1) for these fixed-seed builds — the build and gob
// are deterministic — and the model was never in the file.
func TestSnapshotBytesUnchanged(t *testing.T) {
	sum := func(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }
	if got, want := sum(validSnapshot(t)), "ed81e45a977c8bdaff680623bce227b61907868ba80f11749d350dcc1375667a"; got != want {
		t.Errorf("Save(tinyDB): sha256 %s, want %s", got, want)
	}
	cl, err := NewCluster(smallVectors(64), ClusterOptions{Shards: 3, Build: Options{Metric: L2, Elem: Float32, EfConstruction: 40, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := cl.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		ClusterManifestName:  "42e3e49de37833444439728c0b386153e395cd9232864bc907966fbea9632bb6",
		ShardSnapshotName(0): "dd5f2d67a5c3e76438da102b52b947ab277cdce5abb00a97681b2a71fca55028",
		ShardSnapshotName(1): "5e6a40efe1163f4dfee5cfb6b01de25b0a391cbc5dc23a7275cec2e6caca29f9",
		ShardSnapshotName(2): "1a41a65e8d40102801819ce54fb9cf9e98e59ddee4b54e7deceb6247098c0a19",
	} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if got := sum(data); got != want {
			t.Errorf("%s: sha256 %s, want %s", name, got, want)
		}
	}
}

// verdictCase is one input to New or Load and the call that feeds it.
type verdictCase struct {
	name string
	call func() error
}

// verdictCases is the input table of TestNewLoadVerdictsUnchanged: New's
// refusals, and Load over every snapshot kind, two v4 files that say CPU-Base
// among them.
func verdictCases(t testing.TB) []verdictCase {
	t.Helper()
	vs := smallVectors(12)
	base := Options{Metric: L2, Elem: Float32, EfConstruction: 40, Seed: 7}
	with := func(edit func(o *Options)) Options {
		o := base
		edit(&o)
		return o
	}
	newErr := func(vectors [][]float32, o Options) func() error {
		return func() error {
			_, err := New(vectors, o)
			return err
		}
	}
	image := func(vectors [][]float32, o Options, mutate func(db *Database)) []byte {
		db, err := New(vectors, o)
		if err != nil {
			t.Fatal(err)
		}
		if mutate != nil {
			mutate(db)
		}
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	images := []struct {
		name string
		data []byte
	}{
		{"v3", fixture(t, "v3-sift-u8.snap")},
		{"v3-live", fixture(t, "v3-deep-f16-live.snap")},
		{"v4", image(vs, base, nil)},
		{"v4-live", image(vs, with(func(o *Options) { o.Mutable = true }), func(db *Database) {
			if _, err := db.Add(vs[3]); err != nil {
				t.Fatal(err)
			}
			if err := db.Delete(2); err != nil {
				t.Fatal(err)
			}
		})},
		{"v4-cpubase", fixture(t, "v4-cpubase.snap")},
		{"v4-one-vector", fixture(t, "v4-one-vector-cpubase.snap")},
	}

	ragged := append([][]float32{}, vs...)
	ragged[5] = ragged[5][:7]
	nan := append([][]float32{}, vs...)
	nan[4] = append([]float32{}, nan[4]...)
	nan[4][2] = float32(math.NaN())

	cases := []verdictCase{
		{"New/empty", newErr(nil, base)},
		{"New/ragged", newErr(ragged, base)},
		{"New/nan", newErr(nan, base)},
		{"New/hnsw-M-1", newErr(vs, with(func(o *Options) { o.M = 1 }))},
		{"New/one-vector", newErr(vs[:1], base)},
		{"New/two-vectors", newErr(vs[:2], base)},
		{"New/mutable", newErr(vs, with(func(o *Options) { o.Mutable = true }))},
	}
	for _, im := range images {
		cases = append(cases, verdictCase{"Load/" + im.name, func() error {
			_, err := Load(bytes.NewReader(im.data))
			return err
		}})
	}
	return cases
}

// fixture reads a committed snapshot from testdata/.
func fixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// parentVerdicts is what an NDP-ETOpt database's New and Load answered at
// e6a4203 (Load/v4-cpubase under an NDP-ETOpt override): the error text, ""
// for success. Only the refusals are listed, less the two one-vector ones:
// one vector is a database now, and its New and Load succeed.
var parentVerdicts = map[string]string{
	"New/empty":    "ansmet: empty dataset",
	"New/ragged":   "ansmet: vector 5 has dim 7, want 8",
	"New/nan":      "ansmet: vector has non-finite component (vector 4 component 2 is NaN)",
	"New/hnsw-M-1": "hnsw: invalid config {M:1 MaxDegree:16 EfConstruction:40 Seed:7} (need M >= 2, MaxDegree >= M/2, EfConstruction > 0)",
}

// TestNewLoadVerdictsUnchanged: New and Load give the answers an NDP-ETOpt
// database gave, text included. The 12-vector CPU-Base file loads to what a
// fresh build makes, its Design ignored, and the one-vector CPU-Base file
// loads; both serve ndp ≡ host and tiered ≡ exact bit for bit.
func TestNewLoadVerdictsUnchanged(t *testing.T) {
	seen := 0
	for _, c := range verdictCases(t) {
		want := parentVerdicts[c.name]
		if want != "" {
			seen++
		}
		got := ""
		if err := c.call(); err != nil {
			got = err.Error()
		}
		if got != want {
			t.Errorf("%s: %q, at the parent %q", c.name, got, want)
		}
	}
	if seen != len(parentVerdicts) {
		t.Errorf("%d of the %d recorded refusals were driven", seen, len(parentVerdicts))
	}

	path, d := filepath.Join("testdata", "v4-cpubase.snap"), core.CPUBase
	if _, err := LoadFile(path, &d); err == nil || err.Error() != "ansmet: LoadFile takes no design (got CPU-Base); build a model at it over the database with core.NewSystem" {
		t.Errorf("LoadFile under a design: %v", err)
	}
	loaded, err := LoadFile(path, nil)
	fresh, err2 := New(smallVectors(12), Options{Metric: L2, Elem: Float32, EfConstruction: 40, Seed: 7})
	if err != nil || err2 != nil {
		t.Fatal(err, err2)
	}
	one, err := LoadFile(filepath.Join("testdata", "v4-one-vector-cpubase.snap"), nil)
	if err != nil {
		t.Fatal(err)
	}
	queries := smallVectors(16)[12:]
	sameDatabase(t, "v4-cpubase ≡ a fresh build", fresh, loaded, queries)
	for qi, q := range queries {
		for name, db := range map[string]*Database{"v4-cpubase": loaded, "v4-one-vector": one} {
			got := routesOf(t, db, q, min(5, db.Len()))
			sameBits(t, fmt.Sprintf("%s q%d ndp ≡ host", name, qi), got[RouteNDP], got[RouteHost])
			sameBits(t, fmt.Sprintf("%s q%d tiered ≡ exact", name, qi), got[RouteTiered], got[RouteExact])
		}
	}
}

// attachUnderLoad is the body of TestLiveModelAttachUnderMutation: host-beam
// and exact-scan searchers run while one writer appends rows [from, to) and
// deletes on the way; at the midpoint eight goroutines issue their first ndp
// and tiered queries at once. Exactly one model may come out of that, no
// query may fail or answer short, and once everything has stopped the model
// must cover every id — added before, during and after the attach.
func attachUnderLoad(t *testing.T, db *Database, vec func() []float32, from, to int) {
	t.Helper()
	const k = 10
	ctx := context.Background()
	queries := [][]float32{vec(), vec(), vec(), vec()}
	if db.model.Load() != nil {
		t.Fatal("the model exists before anything asked for it")
	}
	stop, attach := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	search := func(w int, route Route, budget float64) bool {
		var dst []Neighbor
		for qi := w; ; qi++ {
			select {
			case <-stop:
				return true
			default:
			}
			res, err := db.Do(ctx, &Query{Vector: queries[qi%len(queries)], K: k, Ef: 48, Route: route, Budget: budget, Dst: dst})
			if err != nil || len(res.Neighbors) != k || res.Route != route {
				t.Errorf("%v: %d results on %v, err %v", route, len(res.Neighbors), res.Route, err)
				return false
			}
			dst = res.Neighbors
		}
	}
	for w, route := range []Route{RouteHost, RouteExact, RouteHost} {
		wg.Add(1)
		go func(w int, route Route) {
			defer wg.Done()
			search(w, route, 0)
		}(w, route)
	}
	models := make([]*core.System, 8)
	for w := range models {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			route, budget := RouteNDP, 0.0
			if w%2 == 1 {
				route, budget = RouteTiered, 1
			}
			select {
			case <-attach:
			case <-stop:
				select {
				case <-attach: // a late start sees both closed: still attach
				default:
					return
				}
			}
			// The first query of each is what races to build the model.
			if res, err := db.Do(ctx, &Query{Vector: queries[w%len(queries)], K: k, Ef: 48, Route: route, Budget: budget}); err != nil || len(res.Neighbors) != k {
				t.Errorf("first %v query: %d results, err %v", route, len(res.Neighbors), err)
				return
			}
			models[w] = db.model.Load()
			search(w, route, budget)
		}(w)
	}
	write := func() error {
		for i := from; i < to; i++ {
			if i == (from+to)/2 {
				close(attach) // the writer does not wait: adds land before, during and after the build
			}
			if id, err := db.Add(vec()); err != nil || int(id) != i {
				return fmt.Errorf("Add %d: id %d err %v", i, id, err)
			}
			if i%53 == 0 {
				if err := db.Delete(uint32(i - 30)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	err := write()
	close(stop)
	wg.Wait()
	if err != nil || t.Failed() {
		t.Fatalf("writer: %v", err)
	}
	sys := db.model.Load()
	for w, m := range models {
		if m == nil || m != sys {
			t.Fatalf("searcher %d saw model %p, the database holds %p: more than one was built", w, m, sys)
		}
	}
	// Quiescent: the bit-plane routes, over a store that was attached midway
	// and followed every later add, answer what the row routes answer. The
	// two scans are asked for every live id at once (K = the live count), so
	// each id's slot is compared against its row; the beams are asked from
	// every live id's own vector.
	same := func(label string, a, b Query) []Neighbor {
		t.Helper()
		var got [2][]Neighbor
		for i, plan := range []Query{a, b} {
			res, err := db.Do(ctx, &plan)
			if err != nil {
				t.Fatal(err)
			}
			got[i] = res.Neighbors
		}
		sameBits(t, fmt.Sprintf("%s: %v ≡ %v", label, a.Route, b.Route), got[0], got[1])
		return got[0]
	}
	live := db.Len() - db.Tombstones()
	for qi, q := range queries {
		all := same(fmt.Sprint("query ", qi), Query{Vector: q, K: live, Route: RouteTiered, Budget: 1}, Query{Vector: q, K: live, Route: RouteExact})
		if len(all) != live {
			t.Fatalf("query %d: the scans answer %d of %d live ids", qi, len(all), live)
		}
	}
	for id := 0; id < db.Len(); id++ {
		if db.Deleted(uint32(id)) {
			continue
		}
		q, _ := db.Vector(uint32(id))
		if nn := same(fmt.Sprint("id ", id), Query{Vector: q, K: k, Ef: 48, Route: RouteNDP}, Query{Vector: q, K: k, Ef: 48, Route: RouteHost}); len(nn) != k {
			t.Fatalf("id %d: %d results", id, len(nn))
		}
	}
}

// TestLiveModelAttachUnderMutation attaches the NDP model to a mutable
// database in the middle of its life, under load (CI runs it under -race):
// once on a database New built, while the writer crosses two slab chunk
// boundaries, and once on a database LoadFile recovered by journal replay —
// recovery never needed the model and does not build it.
func TestLiveModelAttachUnderMutation(t *testing.T) {
	const dim = 8
	rng := stats.NewRNG(23)
	vec := func() []float32 {
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(rng.Intn(256))
		}
		return v
	}
	population := func(n int) [][]float32 {
		vs := make([][]float32, n)
		for i := range vs {
			vs[i] = vec()
		}
		return vs
	}
	opts := Options{Elem: Uint8, M: 6, MaxDegree: 12, EfConstruction: 24, Mutable: true, RepairEvery: 16}

	t.Run("built", func(t *testing.T) {
		db, err := New(population(rows.ChunkRows-40), opts)
		if err != nil {
			t.Fatal(err)
		}
		attachUnderLoad(t, db, vec, db.Len(), 2*rows.ChunkRows+40)
	})
	t.Run("recovered", func(t *testing.T) {
		db, err := New(population(300), opts)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "db.snap")
		if err := db.AttachWAL(WALName(path)); err != nil {
			t.Fatal(err)
		}
		grow := func(n int) {
			for i := 0; i < n; i++ {
				id, err := db.Add(vec())
				if err != nil {
					t.Fatal(err)
				}
				if i%7 == 0 {
					if err := db.Delete(id - 5); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		grow(60)
		if err := db.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		grow(60) // in the journal only
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		rec, err := LoadFile(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		if st := rec.Stats(); st.WALReplayed == 0 || st.Vectors != db.Len() || rec.model.Load() != nil {
			t.Fatalf("recovery: %+v, model %p", st, rec.model.Load())
		}
		attachUnderLoad(t, rec, vec, rec.Len(), rec.Len()+400)
	})
}
