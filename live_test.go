// Tests for the live mutable index (live.go): mutation semantics,
// tombstone visibility across every search path, WAL-journaled crash
// recovery, snapshot+journal compaction, and the concurrent mutate/search
// contract. The crash-point-at-every-byte-offset table test lives in
// persist_test.go next to the snapshot crash tests.
package ansmet_test

import (
	"context"
	"errors"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ansmet"
	"ansmet/internal/dataset"
	"ansmet/internal/vecmath"
)

// liveOpts are the options every mutation test shares; a small RepairEvery
// exercises the deferred-repair batching within test-sized op sequences.
func liveOpts() ansmet.Options {
	return ansmet.Options{
		Metric: ansmet.L2, Elem: ansmet.Float32,
		EfConstruction: 40, Mutable: true, RepairEvery: 4,
	}
}

// mutOp is one scripted mutation for the recovery-equivalence tests.
type mutOp struct {
	kind string // "add", "delete", "update"
	id   uint32 // delete/update target
	vec  []float32
}

// scriptOps builds a deterministic mutation sequence over a database of n
// initial vectors: interleaved adds, deletes and updates that cross the
// RepairEvery threshold at least once.
func scriptOps(n, dim int) []mutOp {
	fresh := makeVectors(12, dim, 1.3)
	return []mutOp{
		{kind: "add", vec: fresh[0]},
		{kind: "delete", id: 1},
		{kind: "add", vec: fresh[1]},
		{kind: "update", id: 3, vec: fresh[2]},
		{kind: "delete", id: uint32(n - 1)},
		{kind: "add", vec: fresh[3]},
		{kind: "delete", id: 5},
		{kind: "delete", id: 7}, // crosses RepairEvery=4 → repair batch
		{kind: "add", vec: fresh[4]},
		{kind: "update", id: uint32(n), vec: fresh[5]}, // updates an appended id
		{kind: "delete", id: 9},
		{kind: "add", vec: fresh[6]},
	}
}

// applyOps replays the first m scripted ops through the public mutation
// API.
func applyOps(t *testing.T, db *ansmet.Database, ops []mutOp) {
	t.Helper()
	for i, op := range ops {
		var err error
		switch op.kind {
		case "add":
			_, err = db.Add(op.vec)
		case "delete":
			err = db.Delete(op.id)
		case "update":
			_, err = db.Update(op.id, op.vec)
		}
		if err != nil {
			t.Fatalf("op %d (%s): %v", i, op.kind, err)
		}
	}
}

// sameSearchState asserts a and b are byte-identical in everything a
// client can observe: population, tombstones, pending repair, and the
// results of the beam, tiered and exact paths over the given queries.
func sameSearchState(t *testing.T, a, b *ansmet.Database, queries [][]float32) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("Len: %d vs %d", a.Len(), b.Len())
	}
	if a.Tombstones() != b.Tombstones() {
		t.Fatalf("Tombstones: %d vs %d", a.Tombstones(), b.Tombstones())
	}
	sa, sb := a.Stats(), b.Stats()
	if sa.PendingRepair != sb.PendingRepair {
		t.Fatalf("PendingRepair: %d vs %d", sa.PendingRepair, sb.PendingRepair)
	}
	for qi, q := range queries {
		ra, err := a.SearchInto(q, 10, 50, nil)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.SearchInto(q, 10, 50, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("query %d: beam results diverge:\n%v\n%v", qi, ra, rb)
		}
		ea, _, err := exactSearch(a, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		eb, _, err := exactSearch(b, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ea, eb) {
			t.Fatalf("query %d: exact results diverge:\n%v\n%v", qi, ea, eb)
		}
		ta, _, err := a.TieredSearchInto(q, 10, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		tb, _, err := b.TieredSearchInto(q, 10, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ta, tb) {
			t.Fatalf("query %d: tiered results diverge:\n%v\n%v", qi, ta, tb)
		}
	}
}

func TestMutableBasics(t *testing.T) {
	ds := dataset.Generate(dataset.ProfileByName("SIFT"), 300, 4, 11)
	dim := len(ds.Vectors[0])

	// Immutable databases reject mutation with the typed error.
	ro, err := ansmet.New(ds.Vectors, ansmet.Options{Metric: ansmet.L2, Elem: ansmet.Float32, EfConstruction: 40})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ro.Add(ds.Vectors[0]); !errors.Is(err, ansmet.ErrNotMutable) {
		t.Fatalf("Add on immutable db: %v", err)
	}
	if err := ro.Delete(0); !errors.Is(err, ansmet.ErrNotMutable) {
		t.Fatalf("Delete on immutable db: %v", err)
	}
	if ro.Deleted(0) || ro.Tombstones() != 0 || ro.Mutable() {
		t.Fatal("immutable db reports mutation state")
	}

	// The row slab is the ingester on every design, so a Base design is
	// mutable too (TestLiveSnapshotServesUnderBaseOverride drives one beside
	// an ET design through the whole life cycle).
	opts := liveOpts()
	opts.Design = ansmet.UseDesign(ansmet.CPUBase)
	if base, err := ansmet.New(ds.Vectors, opts); err != nil || !base.Mutable() {
		t.Fatalf("Mutable + CPUBase: %v", err)
	}

	db, err := ansmet.New(ds.Vectors, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !db.Mutable() {
		t.Fatal("Mutable() = false")
	}

	// Add assigns the next dense id and the vector becomes retrievable.
	id, err := db.Add(ds.Vectors[1])
	if err != nil {
		t.Fatal(err)
	}
	if id != 300 || db.Len() != 301 {
		t.Fatalf("Add id=%d Len=%d", id, db.Len())
	}
	if v, ok := db.Vector(id); !ok || len(v) != dim {
		t.Fatalf("Vector(%d) = %v %v", id, v, ok)
	}

	// Delete tombstones; double-delete and unknown ids are typed errors.
	if err := db.Delete(5); err != nil {
		t.Fatal(err)
	}
	if !db.Deleted(5) || db.Tombstones() != 1 {
		t.Fatalf("Deleted(5)=%v Tombstones=%d", db.Deleted(5), db.Tombstones())
	}
	if err := db.Delete(5); !errors.Is(err, ansmet.ErrAlreadyDeleted) {
		t.Fatalf("double delete: %v", err)
	}
	if err := db.Delete(99999); !errors.Is(err, ansmet.ErrUnknownID) {
		t.Fatalf("unknown delete: %v", err)
	}
	if _, err := db.Update(5, ds.Vectors[2]); !errors.Is(err, ansmet.ErrAlreadyDeleted) {
		t.Fatalf("update of deleted id: %v", err)
	}

	// Update = add new + tombstone old, atomically visible.
	nid, err := db.Update(7, ds.Vectors[3])
	if err != nil {
		t.Fatal(err)
	}
	if nid != 301 || !db.Deleted(7) || db.Deleted(nid) {
		t.Fatalf("Update: nid=%d Deleted(7)=%v Deleted(nid)=%v", nid, db.Deleted(7), db.Deleted(nid))
	}

	// Vector validation is the ingestion bar.
	if _, err := db.Add([]float32{1, 2}); !errors.Is(err, ansmet.ErrDimension) {
		t.Fatalf("short add: %v", err)
	}
	bad := make([]float32, dim)
	bad[3] = float32(math.NaN())
	if _, err := db.Add(bad); !errors.Is(err, ansmet.ErrBadVector) {
		t.Fatalf("NaN add: %v", err)
	}
	for _, err := range []error{
		ansmet.ErrNotMutable, ansmet.ErrUnknownID, ansmet.ErrAlreadyDeleted, ansmet.ErrBadVector,
	} {
		if !ansmet.IsMutationError(err) {
			t.Fatalf("IsMutationError(%v) = false", err)
		}
	}

	st := db.Stats()
	if !st.Mutable || st.Adds != 1 || st.Deletes != 1 || st.Updates != 1 || st.Tombstones != 2 {
		t.Fatalf("stats = %+v", st)
	}

	// Close stops mutation but not search.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Add(ds.Vectors[4]); !errors.Is(err, ansmet.ErrDatabaseClosed) {
		t.Fatalf("add after close: %v", err)
	}
	if _, err := db.Search(ds.Queries[0], 5); err != nil {
		t.Fatalf("search after close: %v", err)
	}
}

func TestMutableSearchExcludesTombstones(t *testing.T) {
	ds := dataset.Generate(dataset.ProfileByName("SIFT"), 500, 6, 21)
	db, err := ansmet.New(ds.Vectors, liveOpts())
	if err != nil {
		t.Fatal(err)
	}

	// Delete each query's current best hit, then assert no path returns a
	// tombstoned id anymore.
	for _, q := range ds.Queries {
		res, err := db.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if db.Deleted(res[0].ID) {
			continue
		}
		if err := db.Delete(res[0].ID); err != nil {
			t.Fatal(err)
		}
	}
	check := func(path string, res []ansmet.Neighbor, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, n := range res {
			if db.Deleted(n.ID) {
				t.Fatalf("%s returned tombstoned id %d", path, n.ID)
			}
		}
	}
	for _, q := range ds.Queries {
		res, err := db.Search(q, 10)
		check("Search", res, err)
		res, _, err = exactSearch(db, q, 10)
		check("exact", res, err)
		res, _, err = db.TieredSearchInto(q, 10, 0, nil)
		check("TieredSearch", res, err)
		res, err = searchFiltered(db, q, 10, func(id uint32) bool { return id%2 == 0 })
		check("SearchFiltered", res, err)
		for _, n := range res {
			if n.ID%2 != 0 {
				t.Fatalf("SearchFiltered ignored the caller predicate: id %d", n.ID)
			}
		}
	}
	for _, route := range []ansmet.Route{ansmet.RouteAuto, ansmet.RouteNDP, ansmet.RouteTiered, ansmet.RouteExact} {
		many, _, err := db.DoMany(context.Background(), ds.Queries, &ansmet.Query{K: 10, Ef: 50, Route: route}, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range many {
			check("DoMany "+route.String(), res, nil)
		}
	}

	// A freshly added vector is immediately searchable: its own query
	// returns it first.
	nv := make([]float32, len(ds.Vectors[0]))
	for d := range nv {
		nv[d] = ds.Vectors[0][d] + 500 // far from the population
	}
	id, err := db.Add(nv)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Search(nv, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != id {
		t.Fatalf("self-query of added vector: %v (want id %d)", res, id)
	}
}

// TestMutableNilMutationByteIdentity pins the acceptance criterion that a
// mutable database nobody has mutated behaves byte-identically to the
// immutable build: enabling the publication protocols must not change a
// single result.
func TestMutableNilMutationByteIdentity(t *testing.T) {
	ds := dataset.Generate(dataset.ProfileByName("GloVe"), 400, 6, 31)
	imm, err := ansmet.New(ds.Vectors, ansmet.Options{Metric: ansmet.L2, Elem: ansmet.Float32, EfConstruction: 40})
	if err != nil {
		t.Fatal(err)
	}
	mut, err := ansmet.New(ds.Vectors, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	sameSearchState(t, imm, mut, ds.Queries)
	for _, q := range ds.Queries {
		a, err := searchFiltered(imm, q, 5, func(id uint32) bool { return id%3 != 0 })
		if err != nil {
			t.Fatal(err)
		}
		b, err := searchFiltered(mut, q, 5, func(id uint32) bool { return id%3 != 0 })
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("filtered results diverge:\n%v\n%v", a, b)
		}
	}
}

// TestWALRecoveryEquivalence is the core durability property: a database
// recovered by replaying the journal over a deterministic rebuild is
// state-identical to one that applied the acknowledged ops directly.
func TestWALRecoveryEquivalence(t *testing.T) {
	ds := dataset.Generate(dataset.ProfileByName("SIFT"), 200, 5, 41)
	dim := len(ds.Vectors[0])
	ops := scriptOps(200, dim)
	walPath := t.TempDir() + "/journal.wal"

	db, err := ansmet.New(ds.Vectors, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AttachWAL(walPath); err != nil {
		t.Fatal(err)
	}
	applyOps(t, db, ops)
	if got := db.Stats().WALLastSeq; got != uint64(len(ops)) {
		t.Fatalf("WALLastSeq = %d, want %d", got, len(ops))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reference: straight-line application, no journal.
	ref, err := ansmet.New(ds.Vectors, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, ref, ops)

	// Recovery: identical rebuild + journal replay.
	rec, err := ansmet.New(ds.Vectors, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.AttachWAL(walPath); err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := rec.Stats().WALReplayed; got != uint64(len(ops)) {
		t.Fatalf("WALReplayed = %d, want %d", got, len(ops))
	}
	sameSearchState(t, ref, rec, ds.Queries)

	// The recovered database continues accepting journaled mutations.
	if _, err := rec.Add(ds.Vectors[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Add(ds.Vectors[0]); err != nil {
		t.Fatal(err)
	}
	sameSearchState(t, ref, rec, ds.Queries)
}

// TestSnapshotCompactionRoundTrip drives the full durability lifecycle:
// mutate → SaveFile (compaction: journal truncates) → mutate more → crash
// → LoadFile (snapshot + journal replay) ≡ straight-line reference.
func TestSnapshotCompactionRoundTrip(t *testing.T) {
	ds := dataset.Generate(dataset.ProfileByName("SIFT"), 200, 5, 51)
	dim := len(ds.Vectors[0])
	ops := scriptOps(200, dim)
	dir := t.TempDir()
	snapPath := dir + "/db.snap"

	db, err := ansmet.New(ds.Vectors, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AttachWAL(ansmet.WALName(snapPath)); err != nil {
		t.Fatal(err)
	}
	applyOps(t, db, ops[:7])
	if err := db.SaveFile(snapPath); err != nil {
		t.Fatal(err)
	}
	// Compaction truncated the journal to its bare header.
	if fi, err := os.Stat(ansmet.WALName(snapPath)); err != nil || fi.Size() != 11 {
		t.Fatalf("journal after compaction: %v bytes, err %v", fi.Size(), err)
	}
	applyOps(t, db, ops[7:])
	if err := db.Close(); err != nil { // crash: the snapshot stays stale
		t.Fatal(err)
	}

	ref, err := ansmet.New(ds.Vectors, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, ref, ops)

	rec, err := ansmet.LoadFile(snapPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if !rec.Mutable() {
		t.Fatal("loaded database is not mutable")
	}
	if got := rec.Stats().WALReplayed; got != uint64(len(ops)-7) {
		t.Fatalf("WALReplayed = %d, want %d", got, len(ops)-7)
	}
	sameSearchState(t, ref, rec, ds.Queries)

	// Second cycle: compact the recovered db and load again.
	if err := rec.SaveFile(snapPath); err != nil {
		t.Fatal(err)
	}
	rec.Close()
	rec2, err := ansmet.LoadFile(snapPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.Close()
	sameSearchState(t, ref, rec2, ds.Queries)
}

// TestAttachWALAlreadyAttached: LoadFile attaches a live snapshot's paired
// journal, so naming that journal again (`ansmet-serve -db x -wal x.wal`,
// under any spelling of the path) is a no-op — nothing is replayed twice and
// the journal keeps working — while a different journal is refused with an
// error naming both.
func TestAttachWALAlreadyAttached(t *testing.T) {
	ds := dataset.Generate(dataset.ProfileByName("SIFT"), 120, 2, 63)
	dir := t.TempDir()
	snapPath := dir + "/db.snap"
	db, err := ansmet.New(ds.Vectors, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SaveFile(snapPath); err != nil {
		t.Fatal(err)
	}
	rec, err := ansmet.LoadFile(snapPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if _, err := rec.Add(ds.Queries[0]); err != nil {
		t.Fatal(err)
	}
	before := rec.Stats()
	for _, same := range []string{ansmet.WALName(snapPath), dir + "/./sub/../db.snap.wal"} {
		if err := os.MkdirAll(dir+"/sub", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := rec.AttachWAL(same); err != nil {
			t.Fatalf("re-attaching the attached journal as %s: %v", same, err)
		}
	}
	if after := rec.Stats(); after != before || rec.WALPath() != ansmet.WALName(snapPath) {
		t.Fatalf("re-attach changed the database: %+v → %+v (journal %s)", before, after, rec.WALPath())
	}
	if _, err := rec.Add(ds.Queries[1]); err != nil || rec.Stats().WALLastSeq != before.WALLastSeq+1 {
		t.Fatalf("journal after re-attach: err=%v, seq %d → %d", err, before.WALLastSeq, rec.Stats().WALLastSeq)
	}

	other := dir + "/other.wal"
	err = rec.AttachWAL(other)
	if err == nil || !strings.Contains(err.Error(), other) || !strings.Contains(err.Error(), ansmet.WALName(snapPath)) {
		t.Fatalf("attaching a second journal: err=%v, want a refusal naming both paths", err)
	}
	if _, statErr := os.Stat(other); !os.IsNotExist(statErr) {
		t.Fatalf("the refused journal was created: %v", statErr)
	}
}

// TestLiveSnapshotServesUnderBaseOverride: a design without an encoded store
// is as mutable as one with — a CPUBase database answers id for id and bit
// for bit like the NDPETOpt one through add, delete, update, Maintain,
// SaveFile, more journaled writes, a kill, and LoadFile + replay, whichever
// design the snapshot is loaded under.
func TestLiveSnapshotServesUnderBaseOverride(t *testing.T) {
	ds := dataset.Generate(dataset.ProfileByName("SIFT"), 120, 4, 61)
	ops := scriptOps(len(ds.Vectors), len(ds.Vectors[0]))
	dir := t.TempDir()
	paths := map[string]string{}
	live := map[string]*ansmet.Database{}
	for name, d := range map[string]ansmet.Design{"et": ansmet.NDPETOpt, "base": ansmet.CPUBase} {
		opts := liveOpts()
		opts.Design = ansmet.UseDesign(d)
		db, err := ansmet.New(ds.Vectors, opts)
		if err != nil {
			t.Fatal(err)
		}
		paths[name] = dir + "/" + name + ".snap"
		if err := db.AttachWAL(ansmet.WALName(paths[name])); err != nil {
			t.Fatal(err)
		}
		applyOps(t, db, ops[:6])
		db.Maintain()
		if err := db.SaveFile(paths[name]); err != nil {
			t.Fatal(err)
		}
		applyOps(t, db, ops[6:]) // journaled only: the kill below loses nothing acknowledged
		live[name] = db
	}
	sameSearchState(t, live["et"], live["base"], ds.Queries)
	for _, q := range ds.Queries {
		// The ndp beam runs on either model (bit planes; whole rows), tombstones
		// filtered the same way.
		var got [2][]ansmet.Neighbor
		for i, name := range []string{"et", "base"} {
			res, err := live[name].Do(context.Background(), &ansmet.Query{Vector: q, K: 10, Ef: 50, Route: ansmet.RouteNDP})
			if err != nil {
				t.Fatal(err)
			}
			got[i] = res.Neighbors
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Fatalf("ndp beam diverges between designs:\n%v\n%v", got[0], got[1])
		}
	}
	for _, db := range live {
		db.Close() // the process dies; the journal's fsynced records are what is left
	}
	for _, tc := range []struct {
		snap   string
		design *ansmet.Design
	}{
		{"et", ansmet.UseDesign(ansmet.CPUBase)},
		{"et", ansmet.UseDesign(ansmet.NDPBase)},
		{"base", nil},
		{"base", ansmet.UseDesign(ansmet.NDPETOpt)},
	} {
		rec, err := ansmet.LoadFile(paths[tc.snap], tc.design)
		if err != nil {
			t.Fatalf("loading the live %s snapshot under %v: %v", tc.snap, tc.design, err)
		}
		if st := rec.Stats(); !st.Mutable || st.WALReplayed != uint64(len(ops)-6) {
			t.Fatalf("recovered %s: %+v", tc.snap, st)
		}
		sameSearchState(t, live["et"], rec, ds.Queries)
		rec.Close()
	}
}

// TestConcurrentMutateSearch exercises the tentpole concurrency contract
// under the race detector: one writer streams adds/deletes/updates (and
// periodic forced repairs) while searchers assert that (a) no search
// started after a delete acked returns the tombstoned id, and (b) every
// returned distance is consistent with the stored vector — a torn vector
// or neighbor list would surface as a distance mismatch or a crash.
func TestConcurrentMutateSearch(t *testing.T) {
	ds := dataset.Generate(dataset.ProfileByName("SIFT"), 400, 8, 71)
	db, err := ansmet.New(ds.Vectors, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	fresh := makeVectors(64, len(ds.Vectors[0]), 1.1)

	var (
		stop    atomic.Bool
		ackMu   sync.Mutex
		ackDead []uint32 // ids whose Delete has returned
	)
	ackSnapshot := func() map[uint32]bool {
		ackMu.Lock()
		defer ackMu.Unlock()
		m := make(map[uint32]bool, len(ackDead))
		for _, id := range ackDead {
			m[id] = true
		}
		return m
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the single mutation writer
		defer wg.Done()
		next := uint32(2) // deletion cursor over the initial population
		for i := 0; !stop.Load(); i++ {
			switch i % 4 {
			case 0, 1:
				if _, err := db.Add(fresh[i%len(fresh)]); err != nil {
					t.Error(err)
					return
				}
			case 2:
				if err := db.Delete(next); err != nil {
					t.Error(err)
					return
				}
				ackMu.Lock()
				ackDead = append(ackDead, next)
				ackMu.Unlock()
				next += 3
			case 3:
				if i%16 == 3 {
					db.Maintain()
				}
				if _, err := db.Update(next, fresh[(i+7)%len(fresh)]); err != nil {
					t.Error(err)
					return
				}
				ackMu.Lock()
				ackDead = append(ackDead, next)
				ackMu.Unlock()
				next += 3
			}
			if next > 380 {
				stop.Store(true)
			}
		}
	}()

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var dst []ansmet.Neighbor
			for i := 0; !stop.Load(); i++ {
				q := ds.Queries[(i+w)%len(ds.Queries)]
				dead := ackSnapshot() // acked before this search starts
				var res []ansmet.Neighbor
				var err error
				switch i % 4 {
				case 0: // the default beam: the host engine re-pinning the rows
					res, err = db.SearchInto(q, 10, 50, dst)
					dst = res
				case 1:
					res, _, err = db.TieredSearchInto(q, 10, 0, nil)
				case 2:
					res, _, err = exactSearch(db, q, 10)
				default: // the same beam over the ET engine's store snapshot
					var r ansmet.Result
					r, err = db.Do(context.Background(), &ansmet.Query{Vector: q, K: 10, Ef: 50, Route: ansmet.RouteNDP})
					res = r.Neighbors
				}
				if err != nil {
					t.Error(err)
					return
				}
				// More than k vectors are live throughout, so every route owes a
				// full answer, whatever Repair excised mid-traversal.
				if len(res) != 10 {
					t.Errorf("route %d of 4: %d results, want 10", i%4, len(res))
					return
				}
				for _, n := range res {
					if dead[n.ID] {
						t.Errorf("search returned id %d deleted before it started", n.ID)
						return
					}
					v, ok := db.Vector(n.ID)
					if !ok {
						t.Errorf("result id %d has no stored vector", n.ID)
						return
					}
					if d := vecmath.L2.Distance(q, v); math.Abs(d-n.Dist) > 1e-3*(1+math.Abs(d)) {
						t.Errorf("id %d: reported dist %v, stored vector gives %v (torn read?)", n.ID, n.Dist, d)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Post-quiescence sanity: graph still returns full, tombstone-free
	// result sets.
	for _, q := range ds.Queries {
		res, err := db.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 10 {
			t.Fatalf("post-soak search returned %d results", len(res))
		}
		for _, n := range res {
			if db.Deleted(n.ID) {
				t.Fatalf("post-soak search returned tombstoned id %d", n.ID)
			}
		}
	}
}

// TestSearchUnderMutationAllocs pins the read hot path at zero heap
// allocations per query on a quiesced mutable database — the live
// publication protocol (view capture, stripe-locked neighbor copies,
// tombstone filter, store snapshot pinning) must not cost an allocation.
func TestSearchUnderMutationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ds := dataset.Generate(dataset.ProfileByName("SIFT"), 500, 4, 81)
	db, err := ansmet.New(ds.Vectors, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	ops := scriptOps(500, len(ds.Vectors[0]))
	applyOps(t, db, ops)

	var dst []ansmet.Neighbor
	for i := 0; i < 4; i++ {
		if dst, err = db.SearchInto(ds.Queries[i%len(ds.Queries)], 10, 64, dst); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(100, func() {
		dst, err = db.SearchInto(ds.Queries[i%len(ds.Queries)], 10, 64, dst)
		i++
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Fatalf("SearchInto on a mutated database allocates %.1f objects/query, want 0", avg)
	}
}

// TestFilteredRecallTargetByteIdentity extends the RecallTarget ∈ {0, 1}
// byte-identity guarantee (ROADMAP item 4 remainder) to the filtered
// search paths: target 0 (machinery off) and target 1 (exact recall) must
// produce byte-identical filtered results, and an adaptive target must
// keep filtered recall near the exact answer.
func TestFilteredRecallTargetByteIdentity(t *testing.T) {
	ds := dataset.Generate(dataset.ProfileByName("GloVe"), 500, 6, 91)
	build := func(target float64) *ansmet.Database {
		db, err := ansmet.New(ds.Vectors, ansmet.Options{
			Metric: ansmet.L2, Elem: ansmet.Float32,
			EfConstruction: 40, RecallTarget: target,
		})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	d0, d1 := build(0), build(1)
	filter := func(id uint32) bool { return id%3 != 0 }
	for qi, q := range ds.Queries {
		r0, err := searchFiltered(d0, q, 10, filter)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := searchFiltered(d1, q, 10, filter)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r0, r1) {
			t.Fatalf("query %d: RecallTarget 0 vs 1 filtered results diverge:\n%v\n%v", qi, r0, r1)
		}
	}

	// An adaptive target stays close to the exact filtered answer.
	da := build(0.9)
	sum, n := 0.0, 0
	for _, q := range ds.Queries {
		exact, err := searchFiltered(d0, q, 10, filter)
		if err != nil {
			t.Fatal(err)
		}
		adap, err := searchFiltered(da, q, 10, filter)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]uint32, len(exact))
		for i, r := range exact {
			want[i] = r.ID
		}
		got := make([]uint32, len(adap))
		for i, r := range adap {
			got[i] = r.ID
		}
		sum += ansmet.RecallAtK(got, want)
		n++
	}
	if rec := sum / float64(n); rec < 0.85 {
		t.Fatalf("adaptive filtered recall %v < 0.85 vs exact filtered baseline", rec)
	}
}
