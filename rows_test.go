package ansmet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"ansmet/internal/dataset"
	"ansmet/internal/rows"
	"ansmet/internal/stats"
)

// graphHash is sha256 over Snapshot().Neighbors: every node's every level's
// list, lengths included.
func graphHash(db *Database) string {
	h := sha256.New()
	var b [4]byte
	put := func(x uint32) {
		binary.LittleEndian.PutUint32(b[:], x)
		h.Write(b[:])
	}
	for _, node := range db.index.Snapshot().Neighbors {
		put(uint32(len(node)))
		for _, lst := range node {
			put(uint32(len(lst)))
			for _, id := range lst {
				put(id)
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGraphIdentityGoldens: the graphs built over the typed row slab with
// the typed kernels are, edge for edge, the graphs the float32 rows built.
// The goldens were recorded at the parent of the commit that introduced the
// slab (3692c37), with this hash, for the seven hostCases() builds and for
// their mutable arm after its deletes, appends and Maintain — construction
// and repair only ever compare distances, so one distance computed to
// different bits would show here as a different edge.
func TestGraphIdentityGoldens(t *testing.T) {
	goldens := map[string][2]string{
		"sift-u8":          {"8479fb960d098209f3b5863c614135a1af58e2576debea734b92313755e484a3", "90ecbc6db8e44149f037cd27a3394edc7a031403701218c3d37774ea8291f9aa"},
		"spacev-i8-prefix": {"81dfa82ce8b14dbe406414a071ff857d2e4941c9dde2cc9237f6c185033ff38e", "8d568e9a9cead6024bb858a68c472b775486e1a2aee5759854c70fac9ff5fb03"},
		"deep-f32-l2":      {"2a9795e8de76b124b988a09329ecfb5106aedadfbb6697b0bfffcb89dcd7d3c6", "3ee363b14e989bd870064a454e8b06ff3ef6413b2ed329bfd72332bf36f41423"},
		"glove-f32-ip":     {"6e55f0752a6fa798230e2165c16687e4a769d5e6f66cc70e08a8feae3c94de90", "109a0970d18fb898793c43dda9188e81dbfa36f8481e15f05041a6432f97ffac"},
		"deep-f32-cosine":  {"3b6daa30b6e51c3778920b3a779ca7b48f9bdc5b438e355c9e0dbef1c55c3a6d", "435ced3a99af78c7cca75b42dc1971e8f400040e08f2cef03295ca6f0bccfb1c"},
		"deep-fp16":        {"21ddc52e064c279b0cac0a8e48eb1eb91efe712cd478438f73ff9213b3d0179b", "aca85bb02086c4d3aded355b293bb589480594ffe8986afed4f1d841695f49d6"},
		"deep-bf16":        {"c28c43e4adf6de09bfbfe622b011ef11c3d25131d994c1e1a190982ea74cbe09", "7ffd26d6a9dd2b7459f04038c0d55b6e30073c782ccc2277047fcb7eca8f4120"},
	}
	for _, hc := range hostCases() {
		want, ok := goldens[hc.name]
		if !ok {
			t.Fatalf("%s: no golden", hc.name)
		}
		db, err := New(hc.vectors, hc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := graphHash(db); got != want[0] {
			t.Errorf("%s: built graph %s, golden %s", hc.name, got, want[0])
		}
		mopts := hc.opts
		mopts.Mutable, mopts.RepairEvery = true, 8
		mdb, err := New(hc.vectors, mopts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			if err := mdb.Delete(uint32(7 + 19*i)); err != nil {
				t.Fatal(err)
			}
		}
		for _, v := range hc.appends {
			if _, err := mdb.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		mdb.Maintain()
		if got := graphHash(mdb); got != want[1] {
			t.Errorf("%s: graph after deletes, appends and Maintain %s, golden %s", hc.name, got, want[1])
		}
	}
}

// routesOf runs q on the database's two routes and on the two of the NDP
// model built over it now (the ndp beam, the tiered query at budget 1), and
// returns the answers keyed by route name.
func routesOf(t *testing.T, db *Database, q []float32, k int) map[string][]Neighbor {
	t.Helper()
	out := map[string][]Neighbor{}
	for _, r := range []Route{RouteHost, RouteExact} {
		res, err := db.Do(context.Background(), &Query{Vector: q, K: k, Ef: 64, Route: r})
		if err != nil || res.Route != r {
			t.Fatalf("route %v: ran %v, err %v", r, res.Route, err)
		}
		out[r.String()] = append([]Neighbor(nil), res.Neighbors...)
	}
	sys := ndpModel(t, db)
	out["ndp"] = beamOver(sys, sys.NewWorkerEngine())(Query{Vector: q, K: k, Ef: 64})
	out["tiered"] = tieredOver(db, sys.NewWorkerEngine())(q, k)
	return out
}

// sameDatabase fails unless a and b hold the same rows and answer the
// queries with the same ids and distance bits on every route.
func sameDatabase(t *testing.T, label string, a, b *Database, queries [][]float32) {
	t.Helper()
	if a.Len() != b.Len() || a.Tombstones() != b.Tombstones() || a.Stats().PendingRepair != b.Stats().PendingRepair {
		t.Fatalf("%s: %d rows %d tombstones %d pending against %d, %d, %d", label, a.Len(), a.Tombstones(),
			a.Stats().PendingRepair, b.Len(), b.Tombstones(), b.Stats().PendingRepair)
	}
	for id := 0; id < a.Len(); id++ {
		va, _ := a.Vector(uint32(id))
		vb, _ := b.Vector(uint32(id))
		if !slices.Equal(va, vb) || a.Deleted(uint32(id)) != b.Deleted(uint32(id)) {
			t.Fatalf("%s: vector %d differs", label, id)
		}
	}
	if ga, gb := graphHash(a), graphHash(b); ga != gb {
		t.Fatalf("%s: graphs differ", label)
	}
	for qi, q := range queries {
		ra, rb := routesOf(t, a, q, 10), routesOf(t, b, q, 10)
		for r := range ra {
			sameBits(t, fmt.Sprintf("%s q%d %v", label, qi, r), ra[r], rb[r])
		}
	}
}

// TestLoadV3Fixtures: snapshots written by the parent commit in format v3
// (testdata/, gob-encoded float32 rows) still load, and the loaded database
// is the one a fresh build makes today — same rows, same graph, same
// answers bit for bit on every route — immutable and live with tombstones
// and a pending repair; saved again it is a v4 file, smaller, that loads to
// the same database once more.
func TestLoadV3Fixtures(t *testing.T) {
	load := func(name string) (*Database, int) {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, snapshotHeaderV3) {
			t.Fatalf("%s is not a v3 file", name)
		}
		db, err := Load(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return db, len(data)
	}
	resave := func(label string, db *Database, v3Size int, queries [][]float32) {
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(buf.Bytes(), snapshotHeader) || buf.Len() >= v3Size {
			t.Fatalf("%s: re-saved as %d bytes (v3 was %d), header %q", label, buf.Len(), v3Size, buf.Bytes()[:10])
		}
		again, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		sameDatabase(t, label+" v4", db, again, queries)
	}

	// The fixtures' recipes (zz_golden_test.go at the parent, not kept).
	p := dataset.ProfileByName("SIFT")
	ds := dataset.Generate(p, 120, 4, 211)
	fresh, err := New(ds.Vectors, Options{Metric: p.Metric, Elem: p.Elem, EfConstruction: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	loaded, size := load("v3-sift-u8.snap")
	sameDatabase(t, "sift-u8", fresh, loaded, ds.Queries)
	resave("sift-u8", loaded, size, ds.Queries)

	p = dataset.ProfileByName("DEEP")
	ds = dataset.Generate(p, 100, 4, 212)
	extra := dataset.Generate(p, 10, 0, 213).Vectors
	live, err := New(ds.Vectors, Options{Metric: p.Metric, Elem: Float16, EfConstruction: 40, Seed: 3, Mutable: true, RepairEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range extra {
		if _, err := live.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 11; i++ {
		if err := live.Delete(uint32(3 + 9*i)); err != nil {
			t.Fatal(err)
		}
	}
	loaded, size = load("v3-deep-f16-live.snap")
	if !loaded.Mutable() || loaded.Tombstones() != 11 || loaded.Stats().PendingRepair != 3 {
		t.Fatalf("live fixture: mutable %v, %d tombstones, %d pending", loaded.Mutable(), loaded.Tombstones(), loaded.Stats().PendingRepair)
	}
	sameDatabase(t, "deep-f16-live", live, loaded, ds.Queries)
	// And they stay the same database under further mutation.
	for _, db := range []*Database{live, loaded} {
		if id, err := db.Add(ds.Queries[0]); err != nil || id != 110 {
			t.Fatalf("add after load: id %d err %v", id, err)
		}
		for _, id := range []uint32{1, 2, 4, 5, 6} { // crosses RepairEvery
			if err := db.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	sameDatabase(t, "deep-f16-live mutated", live, loaded, ds.Queries)
	resave("deep-f16-live", loaded, size, ds.Queries)
}

// craftedRows are checksum-valid v4 images whose row section is not the
// rows the header describes, and what the refusal must name.
func craftedRows(t testing.TB) []craftedGraph {
	t.Helper()
	valid := validSnapshot(t) // 64 fp32 vectors of dim 8
	craft := func(name, want string, edit func(snap *dbSnapshot, rowSection *[]byte)) craftedGraph {
		return craftedGraph{name, recraft(t, valid, edit), want}
	}
	// A fp16 database, for the bit patterns only a narrow float type has.
	vs := make([][]float32, 40)
	for i := range vs {
		vs[i] = []float32{float32(i), 0.5, -2, float32(i) / 4}
	}
	half, err := New(vs, Options{Elem: Float16, EfConstruction: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := half.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return []craftedGraph{
		craft("row section one byte short", "row section holds 2047 bytes", func(_ *dbSnapshot, rs *[]byte) { *rs = (*rs)[:len(*rs)-1] }),
		craft("row section one byte long", "row section holds 2049 bytes", func(_ *dbSnapshot, rs *[]byte) { *rs = append(*rs, 0) }),
		craft("N one too many", "N 65, Dim 8", func(s *dbSnapshot, _ *[]byte) { s.N++ }),
		craft("N·Dim·bytes overflows", "not N·Dim·", func(s *dbSnapshot, _ *[]byte) { s.N = math.MaxInt / 16 }),
		craft("Dim overflows", "not N·Dim·", func(s *dbSnapshot, _ *[]byte) { s.Dim = math.MaxInt / 2 }),
		craft("Dim 0", "Dim is 0", func(s *dbSnapshot, _ *[]byte) { s.Dim = 0 }),
		craft("N 0", "N is 0", func(s *dbSnapshot, _ *[]byte) { s.N = 0 }),
		craft("fp32 NaN pattern", "row 2 component 1 is not a finite fp32", func(_ *dbSnapshot, rs *[]byte) {
			binary.LittleEndian.PutUint32((*rs)[4*(2*8+1):], 0x7fc00000)
		}),
		{"fp16 NaN pattern", recraft(t, buf.Bytes(), func(_ *dbSnapshot, rs *[]byte) {
			binary.LittleEndian.PutUint16((*rs)[2*(5*4+3):], 0x7e01)
		}), "row 5 component 3 is not a finite fp16"},
	}
}

// TestLoadRefusesCraftedRows: each crafted row section fails Load with
// ErrSnapshotRows and an error naming the field; nothing panics, nothing
// loads.
func TestLoadRefusesCraftedRows(t *testing.T) {
	for _, c := range craftedRows(t) {
		db, err := Load(bytes.NewReader(c.image))
		if err == nil || db != nil {
			t.Errorf("%s: loaded (err %v)", c.name, err)
		} else if !errors.Is(err, ErrSnapshotRows) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q is not an ErrSnapshotRows naming %q", c.name, err, c.want)
		}
	}
}

// TestVectorReturnsCopy: what Vector hands out is the caller's. Writing
// into it changes no row, no answer and no snapshot byte.
func TestVectorReturnsCopy(t *testing.T) {
	for _, mutable := range []bool{false, true} {
		p := dataset.ProfileByName("SIFT")
		ds := dataset.Generate(p, 300, 3, 9)
		db, err := New(ds.Vectors, Options{Metric: p.Metric, Elem: p.Elem, EfConstruction: 40, Mutable: mutable})
		if err != nil {
			t.Fatal(err)
		}
		var before bytes.Buffer
		if err := db.Save(&before); err != nil {
			t.Fatal(err)
		}
		want := routesOf(t, db, ds.Queries[0], 10)
		nearest := want["exact"][0].ID
		v, ok := db.Vector(nearest)
		if !ok || !slices.Equal(v, ds.Vectors[nearest]) {
			t.Fatalf("Vector(%d) = %v, %v", nearest, v, ok)
		}
		for d := range v {
			v[d] = 255 - v[d]
		}
		if again, _ := db.Vector(nearest); !slices.Equal(again, ds.Vectors[nearest]) {
			t.Fatalf("mutable=%v: writing into Vector's result changed the stored row", mutable)
		}
		for r, nn := range routesOf(t, db, ds.Queries[0], 10) {
			sameBits(t, fmt.Sprintf("mutable=%v %v after the write", mutable, r), nn, want[r])
		}
		var after bytes.Buffer
		if err := db.Save(&after); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before.Bytes(), after.Bytes()) {
			t.Fatalf("mutable=%v: the snapshot changed", mutable)
		}
		if _, ok := db.Vector(uint32(db.Len())); ok {
			t.Fatal("Vector resolves an id past the end")
		}
	}
}

// TestNonFiniteNeverReachesStorage: no path stores, journals or snapshots a
// value that is not finite. New, Add and Update reject NaN and ±Inf inputs
// with ErrBadVector (New naming vector and component), a query with one is
// ErrBadQuery — and a finite component beyond a 16-bit float's range, which
// used to round to +Inf after the check, saturates at the largest finite
// value instead: it is stored, answers with finite distances, and survives
// Save → Load.
func TestNonFiniteNeverReachesStorage(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	base := func() [][]float32 {
		vs := make([][]float32, 40)
		for i := range vs {
			vs[i] = []float32{float32(i), 0.5, -2, float32(i%7) / 4}
		}
		return vs
	}
	for _, elem := range []ElemType{Uint8, Int8, Float16, BFloat16, Float32} {
		for _, bad := range []float32{nan, inf, -inf} {
			vs := base()
			vs[5][3] = bad
			_, err := New(vs, Options{Elem: elem, EfConstruction: 20})
			if !errors.Is(err, ErrBadVector) || !strings.Contains(err.Error(), "vector 5 component 3") {
				t.Errorf("%v: New with %v: err = %v, want ErrBadVector naming vector 5 component 3", elem, bad, err)
			}
		}
	}
	cases := []struct {
		elem     ElemType
		over     float32 // finite, beyond the type's range
		saturate float32
	}{
		{Float16, 1e9, 65504},
		{Float16, -70000, -65504},
		{BFloat16, 3.4e38, math.Float32frombits(0x7f7f0000)},
	}
	for _, c := range cases {
		vs := base()
		vs[7][2] = c.over // New saturates too
		db, err := New(vs, Options{Elem: c.elem, EfConstruction: 20, Mutable: true})
		if err != nil {
			t.Fatalf("%v: New with a finite %v: %v", c.elem, c.over, err)
		}
		vec := []float32{3, c.over, 1, 0.25}
		id, err := db.Add(vec)
		if err != nil {
			t.Fatalf("%v: Add with a finite %v: %v", c.elem, c.over, err)
		}
		uid, err := db.Update(2, vec)
		if err != nil {
			t.Fatalf("%v: Update with a finite %v: %v", c.elem, c.over, err)
		}
		for _, at := range [][2]uint32{{7, 2}, {id, 1}, {uid, 1}} {
			if v, _ := db.Vector(at[0]); v[at[1]] != c.saturate {
				t.Errorf("%v: vector %d component %d stored %v, want %v", c.elem, at[0], at[1], v[at[1]], c.saturate)
			}
		}
		for _, bad := range []float32{nan, inf, -inf} {
			if _, err := db.Add([]float32{1, bad, 1, 1}); !errors.Is(err, ErrBadVector) {
				t.Errorf("%v: Add with %v: err = %v", c.elem, bad, err)
			}
			if _, err := db.Update(3, []float32{1, 1, bad, 1}); !errors.Is(err, ErrBadVector) {
				t.Errorf("%v: Update with %v: err = %v", c.elem, bad, err)
			}
			if _, err := db.Do(context.Background(), &Query{Vector: []float32{bad, 1, 1, 1}, K: 3}); !errors.Is(err, ErrBadQuery) {
				t.Errorf("%v: query with %v: err = %v", c.elem, bad, err)
			}
		}
		// A finite query with the overflowing component gets finite answers.
		want := routesOf(t, db, vec, 3)
		for r, nn := range want {
			for _, n := range nn {
				if math.IsInf(n.Dist, 0) || math.IsNaN(n.Dist) {
					t.Errorf("%v: route %v answers %v", c.elem, r, nn)
				}
			}
		}
		if got := want["exact"][0]; got.ID != id || got.Dist != 0 {
			t.Errorf("%v: the stored vector is not its own nearest neighbour: %v", c.elem, want["exact"])
		}
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatalf("%v: the snapshot of a database that saw %v does not load: %v", c.elem, c.over, err)
		}
		sameDatabase(t, fmt.Sprint(c.elem, " reloaded"), db, back, [][]float32{vec})
	}
}

// TestLiveAppendAcrossSlabChunks searches — the host beam and the exact
// scan, both reading rows straight from the slab — while the single writer
// appends across two slab chunk boundaries and deletes on the way: a reader
// that pinned an older chunk table must never be handed an id whose row it
// cannot reach, and under -race the row writes must be ordered with every
// reader's compare by the slab's one publication.
func TestLiveAppendAcrossSlabChunks(t *testing.T) {
	const base, total, dim = rows.ChunkRows - 40, 2*rows.ChunkRows + 40, 8
	rng := stats.NewRNG(17)
	vec := func() []float32 {
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(rng.Intn(256))
		}
		return v
	}
	vs := make([][]float32, base)
	for i := range vs {
		vs[i] = vec()
	}
	queries := [][]float32{vec(), vec(), vec(), vec()}
	db, err := New(vs, Options{Elem: Uint8, M: 6, MaxDegree: 12, EfConstruction: 24, Mutable: true, RepairEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w, route := range []Route{RouteHost, RouteExact, RouteHost} {
		wg.Add(1)
		go func(w int, route Route) {
			defer wg.Done()
			var dst []Neighbor
			for qi := w; ; qi++ {
				select {
				case <-stop:
					return
				default:
				}
				res, err := db.Do(context.Background(), &Query{Vector: queries[qi%len(queries)], K: 10, Ef: 48, Route: route, Dst: dst})
				if err != nil || len(res.Neighbors) != 10 {
					t.Errorf("%v: %d results, err %v", route, len(res.Neighbors), err)
					return
				}
				dst = res.Neighbors
				for i, n := range dst {
					if int(n.ID) >= total || math.IsNaN(n.Dist) || (i > 0 && n.Less(dst[i-1])) {
						t.Errorf("%v: bad answer %v", route, dst)
						return
					}
				}
			}
		}(w, route)
	}
	for i := base; i < total; i++ {
		if id, err := db.Add(vec()); err != nil || int(id) != i {
			t.Fatalf("Add %d: id %d err %v", i, id, err)
		}
		if i%53 == 0 {
			if err := db.Delete(uint32(i - 30)); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	// Quiescent: the exact scan is brute force over what was appended.
	v, _ := db.Vector(total - 1)
	res, err := db.Do(context.Background(), &Query{Vector: v, K: 1, Route: RouteExact})
	if err != nil || len(res.Neighbors) != 1 || res.Neighbors[0].Dist != 0 {
		t.Fatalf("the last appended row is not found: %v, %v", res.Neighbors, err)
	}
}
