package ansmet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ansmet/internal/stats"
	"ansmet/internal/wal"
)

// scriptOp is one step of a seeded script: a mutation kind (0 forces a
// Maintain), the id a delete or update names, the vector an add or update
// carries — or one of the contract harness's own steps, which at
// parameterizes (contract_test.go).
type scriptOp struct {
	kind uint8
	id   uint32
	vec  []float32
	at   int
}

// scriptVec draws a d-component vector in elem's range, on a 1/64 grid so that
// a uint8 database has something to quantize.
func scriptVec(rng *stats.RNG, d int, elem ElemType) []float32 {
	scale := 64.0
	if elem == Uint8 {
		scale *= 256
	}
	v := make([]float32, d)
	for i := range v {
		v[i] = float32(math.Floor(rng.Float64()*scale) / 64)
	}
	return v
}

// commitScript is a deterministic script of steps writes over a database of n
// vectors of dimension dim and element type elem: adds, deletes, updates
// and one forced Maintain, and — one step in four — a write that must be
// refused: an id never assigned, an id already tombstoned (deleted or updated
// away), a vector of the wrong dimension, a NaN component. The generator keeps
// its own model of the population, so the script does not depend on any
// database's verdicts.
func commitScript(seed uint64, n, dim, steps int, elem ElemType) []scriptOp {
	rng := stats.NewRNG(seed)
	vec := func(d int) []float32 { return scriptVec(rng, d, elem) }
	next := uint32(n)
	var dead []uint32
	isDead := map[uint32]bool{}
	live := func() uint32 {
		for {
			if id := uint32(rng.Intn(int(next))); !isDead[id] {
				return id
			}
		}
	}
	kill := func(id uint32) { dead, isDead[id] = append(dead, id), true }
	ops := make([]scriptOp, 0, steps)
	for i := 0; i < steps; i++ {
		switch {
		case i == steps/2:
			ops = append(ops, scriptOp{})
		case i%4 == 3 && len(dead) > 0:
			switch rng.Intn(6) {
			case 0:
				ops = append(ops, scriptOp{kind: recDelete, id: next + uint32(rng.Intn(3))})
			case 1:
				ops = append(ops, scriptOp{kind: recUpdate, id: next + 7, vec: vec(dim)})
			case 2:
				ops = append(ops, scriptOp{kind: recDelete, id: dead[rng.Intn(len(dead))]})
			case 3:
				ops = append(ops, scriptOp{kind: recUpdate, id: dead[rng.Intn(len(dead))], vec: vec(dim)})
			case 4:
				ops = append(ops, scriptOp{kind: recAdd, vec: vec(dim - 1)})
			default:
				v := vec(dim)
				v[rng.Intn(dim)] = float32(math.NaN())
				ops = append(ops, scriptOp{kind: recUpdate, id: live(), vec: v})
			}
		case i%3 == 0:
			ops = append(ops, scriptOp{kind: recAdd, vec: vec(dim)})
			next++
		case i%3 == 1:
			id := live()
			ops = append(ops, scriptOp{kind: recDelete, id: id})
			kill(id)
		default:
			id := live()
			ops = append(ops, scriptOp{kind: recUpdate, id: id, vec: vec(dim)})
			kill(id)
			next++
		}
	}
	return ops
}

// run drives one script step through the public API.
func (op scriptOp) run(db *Database) error {
	var err error
	switch op.kind {
	case recAdd:
		_, err = db.Add(op.vec)
	case recDelete:
		err = db.Delete(op.id)
	case recUpdate:
		_, err = db.Update(op.id, op.vec)
	default:
		db.Maintain()
	}
	return err
}

// scriptDB builds the mutable database the commit tests share: n seeded
// vectors of dimension 12 in elem's range.
func scriptDB(t testing.TB, elem ElemType, n int) *Database {
	t.Helper()
	rng := stats.NewRNG(99)
	vs := make([][]float32, n)
	for i := range vs {
		vs[i] = scriptVec(rng, 12, elem)
	}
	db, err := New(vs, Options{Metric: L2, Elem: elem, EfConstruction: 40, Seed: 7, Mutable: true, RepairEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestJournalBytesUnchanged: the commit core and its one payload codec write
// the journal the four hand-kept copies wrote. The hashes were recorded by
// this script at the parent commit (b1cdbff), before the first edit; refused
// writes are in the script and leave no byte.
func TestJournalBytesUnchanged(t *testing.T) {
	for _, tc := range []struct {
		elem ElemType
		want string
	}{
		{Uint8, "8844b65634edff4ef8f25512d33b057a6978f200e71d68da37249cc4de804dec"},
		{Float32, "9d7f59e62c1a3ab0552995fe4df20d4184e286d09e684ffb5acfd12430474d1b"},
	} {
		db := scriptDB(t, tc.elem, 80)
		path := filepath.Join(t.TempDir(), "j.wal")
		if err := db.AttachWAL(path); err != nil {
			t.Fatal(err)
		}
		refused := 0
		for _, op := range commitScript(5, 80, 12, 60, tc.elem) {
			if op.run(db) != nil {
				refused++
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		st := db.Stats()
		t.Logf("%v: %d bytes, %d records, %d refused", tc.elem, len(data), st.WALLastSeq, refused)
		if st.WALLastSeq+uint64(refused)+1 != 60 || refused < 8 {
			t.Fatalf("%v: %d records + %d refused + 1 Maintain do not make the 60 steps", tc.elem, st.WALLastSeq, refused)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != tc.want {
			t.Errorf("%v journal: sha256 %s, want %s", tc.elem, got, tc.want)
		}
	}
}

// record is the journal record commit would write for op against db as it
// stands: the next slot, the quantized vector — or, for a vector checkVector
// refuses, the vector as given, which is what a journal from elsewhere could
// hold.
func (op scriptOp) record(db *Database) wal.Record {
	qv, err := db.checkVector(op.vec)
	if err != nil {
		qv = op.vec
	}
	m := mutation{kind: op.kind, old: op.id, id: uint32(db.rows.Len()), vec: qv}
	return wal.Record{Type: op.kind, Payload: m.appendPayload(nil)}
}

// TestReplayIsCommit: replay is commit without the journal. For a seeded
// script with refused writes in it (unknown id, double delete, update of a
// tombstoned id, wrong dimension, NaN), the live verdict of every step equals
// the verdict of replaying its record against a twin database in the same
// state — errors.Is class included, and for the population checks the text —
// and afterwards the twins agree on population, tombstones, counters and
// answers. The one test replay has of its own is that a record assigns the
// next slot.
func TestReplayIsCommit(t *testing.T) {
	classes := []error{ErrUnknownID, ErrAlreadyDeleted, ErrDimension, ErrBadVector}
	for _, elem := range []ElemType{Uint8, Float32} {
		live, twin := scriptDB(t, elem, 80), scriptDB(t, elem, 80)
		refused := map[error]int{}
		for i, op := range commitScript(11, 80, 12, 160, elem) {
			if op.kind == 0 {
				live.Maintain()
				twin.Maintain()
				continue
			}
			rec := op.record(twin)
			liveErr, twinErr := op.run(live), twin.applyRecord(rec)
			if (liveErr == nil) != (twinErr == nil) {
				t.Fatalf("%v step %d (%s): live %v, replay %v", elem, i, kindNames[op.kind], liveErr, twinErr)
			}
			if liveErr == nil {
				continue
			}
			matched := false
			for _, class := range classes {
				if errors.Is(liveErr, class) != errors.Is(twinErr, class) {
					t.Fatalf("%v step %d: live %v and replay %v differ on %v", elem, i, liveErr, twinErr, class)
				}
				if errors.Is(liveErr, class) {
					matched = true
					refused[class]++
				}
			}
			if !matched {
				t.Fatalf("%v step %d: live verdict %v has no class", elem, i, liveErr)
			}
			if (errors.Is(liveErr, ErrUnknownID) || errors.Is(liveErr, ErrAlreadyDeleted)) && liveErr.Error() != twinErr.Error() {
				t.Fatalf("%v step %d: one check, two texts: %q vs %q", elem, i, liveErr, twinErr)
			}
		}
		for _, class := range classes {
			if refused[class] == 0 {
				t.Fatalf("%v: the script never provoked %v", elem, class)
			}
		}

		// A record that does not assign the next slot belongs to another
		// snapshot: refused, with no class, and nothing applied.
		stray := mutation{kind: recAdd, id: uint32(twin.rows.Len()) + 1, vec: make([]float32, 12)}
		err := twin.applyRecord(wal.Record{Type: recAdd, Payload: stray.appendPayload(nil)})
		if err == nil || IsMutationError(err) {
			t.Fatalf("%v: a record assigning slot %d of %d: %v", elem, stray.id, twin.rows.Len(), err)
		}

		ls, ts := live.Stats(), twin.Stats()
		if ts.WALReplayed != ls.Adds+ls.Deletes+ls.Updates || ls.WALReplayed != 0 {
			t.Fatalf("%v: twin replayed %d of %d writes", elem, ts.WALReplayed, ls.Adds+ls.Deletes+ls.Updates)
		}
		ts.WALReplayed = 0
		if ls != ts || live.Len() != twin.Len() || !reflect.DeepEqual(live.tomb.IDs(), twin.tomb.IDs()) {
			t.Fatalf("%v: twins diverge:\nlive %+v\ntwin %+v", elem, ls, ts)
		}
		for _, op := range commitScript(12, 80, 12, 12, elem) {
			if len(op.vec) != 12 || nonFinite(op.vec) >= 0 {
				continue
			}
			for _, route := range []Route{RouteHost, RouteExact} {
				a, err := live.Do(context.Background(), &Query{Vector: op.vec, K: 10, Route: route})
				if err != nil {
					t.Fatal(err)
				}
				b, err := twin.Do(context.Background(), &Query{Vector: op.vec, K: 10, Route: route})
				if err != nil {
					t.Fatal(err)
				}
				if len(a.Neighbors) != 10 || !reflect.DeepEqual(a.Neighbors, b.Neighbors) {
					t.Fatalf("%v %v: answers diverge:\n%v\n%v", elem, route, a.Neighbors, b.Neighbors)
				}
			}
		}
	}
}

// TestRefusedJournalAppliesNothing: a write the journal cannot take is refused
// before anything is applied — population, counters and journal position stay
// where the last acknowledged write left them, and reads keep being served.
func TestRefusedJournalAppliesNothing(t *testing.T) {
	db := scriptDB(t, Float32, 40)
	if err := db.AttachWAL(filepath.Join(t.TempDir(), "j.wal")); err != nil {
		t.Fatal(err)
	}
	v := make([]float32, 12)
	if _, err := db.Add(v); err != nil {
		t.Fatal(err)
	}
	before := db.Stats()
	db.journal.Close() // every later Append fails; the database does not know
	_, addErr := db.Add(v)
	_, updErr := db.Update(3, v)
	for _, err := range []error{addErr, db.Delete(3), updErr} {
		if !errors.Is(err, wal.ErrClosed) || IsMutationError(err) {
			t.Fatalf("write over a refusing journal: %v, want a wrapped wal.ErrClosed", err)
		}
	}
	if after := db.Stats(); after != before || db.Deleted(3) {
		t.Fatalf("a refused write was applied:\n%+v\n%+v", before, after)
	}
	if res, err := db.Do(context.Background(), &Query{Vector: v, K: 5}); err != nil || len(res.Neighbors) != 5 {
		t.Fatalf("search after refused writes: %d results, %v", len(res.Neighbors), err)
	}
}

// TestBackupLeavesJournalAlone: SaveFile to a path that is not the attached
// journal's snapshot is a backup — the journal keeps every record, so a kill
// afterwards loses no acknowledged write; SaveFile to the journal's own
// snapshot still compacts. At the parent commit the backup truncated the
// journal and LoadFile returned 300 of 330 vectors with a nil error.
func TestBackupLeavesJournalAlone(t *testing.T) {
	dir := t.TempDir()
	index, backup := filepath.Join(dir, "index.db"), filepath.Join(dir, "backup.db")
	if err := scriptDB(t, Uint8, 300).SaveFile(index); err != nil {
		t.Fatal(err)
	}
	db, err := LoadFile(index, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := []float32{3, 141, 59, 26, 53, 58, 97, 93, 23, 84, 62, 64}
	add := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := db.Add(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(20)
	if err := db.SaveFile(backup); err != nil {
		t.Fatal(err)
	}
	add(10)
	// No Close: the process is killed here.
	rec, err := LoadFile(index, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if st := rec.Stats(); rec.Len() != 330 || st.WALReplayed != 30 {
		t.Fatalf("after a backup and a kill: %d vectors, %d replayed, want 330 and 30", rec.Len(), st.WALReplayed)
	}
	// The backup is a consistent snapshot at the journal's position: it
	// carries the 20 adds, and a journal of its own starts after them.
	bak, err := LoadFile(backup, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bak.Close()
	if st := bak.Stats(); bak.Len() != 320 || st.WALReplayed != 0 || st.WALLastSeq != 20 {
		t.Fatalf("backup: %d vectors, stats %+v", bak.Len(), st)
	}
	// The pair still compacts.
	if err := rec.SaveFile(index); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(WALName(index)); err != nil || fi.Size() != 11 {
		t.Fatalf("journal after SaveFile to its own snapshot: %v, %v", fi, err)
	}
}

// TestJournalPastSnapshotRefused: a journal whose first record starts past the
// snapshot's compaction point holds acknowledged writes that belong to another
// snapshot. LoadFile refuses with wal.ErrBadSequence and leaves the journal as
// found; at the parent commit it truncated the records as a "torn tail" and
// returned a nil error.
func TestJournalPastSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	old, index := filepath.Join(dir, "old.db"), filepath.Join(dir, "index.db")
	db := scriptDB(t, Float32, 60)
	if err := db.SaveFile(old); err != nil { // compaction point 0
		t.Fatal(err)
	}
	if err := db.AttachWAL(WALName(index)); err != nil {
		t.Fatal(err)
	}
	v := make([]float32, 12)
	for i := 0; i < 5; i++ {
		if _, err := db.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.SaveFile(index); err != nil { // compaction point 5
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := db.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()
	// The journal (records 6–9) beside the older snapshot.
	journal, err := os.ReadFile(WALName(index))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(WALName(old), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(old, nil); !errors.Is(err, wal.ErrBadSequence) {
		t.Fatalf("LoadFile over a journal past its snapshot: %v, want wal.ErrBadSequence", err)
	}
	if after, err := os.ReadFile(WALName(old)); err != nil || !bytes.Equal(after, journal) {
		t.Fatalf("the refused journal changed: %d → %d bytes, %v", len(journal), len(after), err)
	}
	// Beside its own snapshot the same journal replays.
	rec, err := LoadFile(index, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Len() != 69 || rec.Stats().WALReplayed != 4 {
		t.Fatalf("paired recovery: %d vectors, %d replayed", rec.Len(), rec.Stats().WALReplayed)
	}
}
