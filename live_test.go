// Tests for the live mutable index (live.go) through the public API: mutation
// semantics, journal attachment, the read path's allocation budget. What a
// write does to every route, to the journal and to recovery is the contract
// harness's (contract_test.go).
package ansmet_test

import (
	"context"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"ansmet"
	"ansmet/internal/dataset"
)

// liveOpts are the options every mutation test shares; a small RepairEvery
// exercises the deferred-repair batching within test-sized op sequences.
func liveOpts() ansmet.Options {
	return ansmet.Options{
		Metric: ansmet.L2, Elem: ansmet.Float32,
		EfConstruction: 40, Mutable: true, RepairEvery: 4,
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
	if _, err := db.Do(context.Background(), &ansmet.Query{Vector: ds.Queries[0], K: 5}); err != nil {
		t.Fatalf("search after close: %v", err)
	}
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

// TestSearchUnderMutationAllocs pins the read hot path at zero heap
// allocations per query on a quiesced mutable database — the live
// publication protocol (view capture, stripe-locked neighbor copies,
// tombstone filter, slab view pinning) must not cost an allocation.
func TestSearchUnderMutationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ds := dataset.Generate(dataset.ProfileByName("SIFT"), 500, 4, 81)
	db, err := ansmet.New(ds.Vectors, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ { // adds, deletes crossing RepairEvery, updates
		if _, err := db.Add(ds.Queries[i%len(ds.Queries)]); err != nil {
			t.Fatal(err)
		}
		if err := db.Delete(uint32(3*i + 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Update(uint32(3*i+2), ds.Vectors[i]); err != nil {
			t.Fatal(err)
		}
	}

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
