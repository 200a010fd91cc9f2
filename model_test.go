package ansmet

// The structure this file pins: a Database owns its rows, graph and
// tombstones, and the NDP model is a point-in-time copy of them that
// NewSystem builds on request; the simulator's run over it answers what the
// host beam answers.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ansmet/internal/core"
	"ansmet/internal/sim"
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
			sameBits(t, fmt.Sprintf("%s %s q%d ndp ≡ host", label, name, qi), got["ndp"], got["host"])
			sameBits(t, fmt.Sprintf("%s %s q%d tiered ≡ exact", label, name, qi), got["tiered"], got["exact"])
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

// TestRunFiltersTombstones: the simulator's run over a model built on the
// database is the ndp beam with a trace recorder, so on a mutable database it
// leaves out deleted ids exactly as the host beam does.
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
	m, err := sim.NewModel(ndpModel(t, db), sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	run, err := m.Run(queries, 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		want, err := db.Do(ctx, &Query{Vector: q, K: 3, Ef: 40, Route: RouteHost})
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("Run ≡ Do(host), query %d", qi), run.Results[qi], want.Neighbors)
		for _, n := range run.Results[qi] {
			if db.Deleted(n.ID) {
				t.Fatalf("query %d: Run returned tombstoned id %d", qi, n.ID)
			}
		}
	}
}

// TestModelIsACopy: NewSystem copies the database, so the writes after it —
// 40 adds past the model's last slot, 60 deletes and a repair — leave the
// model's beam answering bit for bit what it answered before them. A writer
// that runs concurrently with NewSystem does not show in the model halfway:
// the model is the database at some point of the writer's run, and answers
// what a model built over a database of that many rows answers.
func TestModelIsACopy(t *testing.T) {
	vs := smallVectors(246)
	q := Query{Vector: vs[245], K: 10}
	build := func(adds int) *Database {
		db, err := New(vs[:200], Options{Elem: Float32, EfConstruction: 40, Seed: 7, Mutable: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vs[200 : 200+adds] {
			if _, err := db.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	t.Run("writes after", func(t *testing.T) {
		db := build(0)
		sys := ndpModel(t, db)
		beam := beamOver(sys, sys.NewWorkerEngine())
		before := beam(q)
		for _, v := range vs[200:240] {
			if _, err := db.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		for id := uint32(0); id < 240; id += 4 {
			if err := db.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		db.Maintain()
		sameBits(t, "the model's beam after 40 adds, 60 deletes and Maintain", beam(q), before)
	})
	t.Run("writer during", func(t *testing.T) {
		db := build(0)
		started, done := make(chan struct{}), make(chan error, 1)
		go func() {
			for i, v := range vs[200:240] {
				if _, err := db.Add(v); err != nil {
					done <- err
					return
				}
				if i == 0 {
					close(started)
				}
			}
			done <- nil
		}()
		select {
		case <-started:
		case err := <-done:
			t.Fatal(err)
		}
		sys := ndpModel(t, db)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		n := sys.Store.Len()
		if n < 201 || n > 240 || sys.Rows().Len() != n {
			t.Fatalf("the model holds %d slots over %d rows; the writer took the database from 201 to 240", n, sys.Rows().Len())
		}
		ref := ndpModel(t, build(n-200))
		sameBits(t, fmt.Sprintf("the model over %d rows ≡ one built over a database of them", n),
			beamOver(sys, sys.NewWorkerEngine())(q), beamOver(ref, ref.NewWorkerEngine())(q))
	})
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
// loads; over both, the NDP model's routes answer what the database's do, bit
// for bit (ndp ≡ host, tiered ≡ exact), and the one vector is every answer.
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
	if _, err := LoadFile(path, &d); err == nil || err.Error() != "ansmet: LoadFile takes no design (got CPU-Base); build a model at it over the database with Database.NewSystem" {
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
		got := routesOf(t, loaded, q, 5)
		sameBits(t, fmt.Sprintf("v4-cpubase q%d ndp ≡ host", qi), got["ndp"], got["host"])
		sameBits(t, fmt.Sprintf("v4-cpubase q%d tiered ≡ exact", qi), got["tiered"], got["exact"])
	}
	oneVector(t, "v4-one-vector", one, queries)
}
