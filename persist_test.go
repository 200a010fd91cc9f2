package ansmet_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ansmet"
	"ansmet/internal/dataset"
	"ansmet/internal/wal"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	p := dataset.ProfileByName("SPACEV")
	ds := dataset.Generate(p, 500, 6, 21)
	db, err := ansmet.New(ds.Vectors, ansmet.Options{
		Metric: p.Metric, Elem: p.Elem, EfConstruction: 60, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ansmet.Load(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != db.Len() {
		t.Fatalf("loaded %d vectors, want %d", loaded.Len(), db.Len())
	}
	// Identical search results (same graph, same deterministic preprocessing).
	for _, q := range ds.Queries {
		a, err := db.SearchInto(q, 10, 50, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.SearchInto(q, 10, 50, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("results diverge after load: %+v vs %+v", a[j], b[j])
			}
		}
	}
	if db.Stats().PrefixBits != loaded.Stats().PrefixBits {
		t.Error("preprocessing differs after load")
	}
}

func TestLoadWithDesignOverride(t *testing.T) {
	p := dataset.ProfileByName("SIFT")
	ds := dataset.Generate(p, 300, 3, 23)
	db, err := ansmet.New(ds.Vectors, ansmet.Options{
		Metric: p.Metric, Elem: p.Elem, EfConstruction: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ansmet.Load(&buf, ansmet.UseDesign(ansmet.CPUBase))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Stats().Design != ansmet.CPUBase {
		t.Errorf("design override ignored: %v", loaded.Stats().Design)
	}
	// Results still identical (designs are functionally equivalent).
	a, _ := db.SearchInto(ds.Queries[0], 5, 40, nil)
	b, _ := loaded.SearchInto(ds.Queries[0], 5, 40, nil)
	for j := range a {
		if a[j].ID != b[j].ID {
			t.Fatal("override changed results")
		}
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := ansmet.Load(bytes.NewReader([]byte("not a database")), nil); err == nil {
		t.Error("garbage input should fail")
	}
}

// ---- WAL crash-point recovery ---------------------------------------------

// crashOpts build small and repair eagerly so the every-offset sweep stays
// fast while still crossing repair batch boundaries.
func crashOpts() ansmet.Options {
	return ansmet.Options{
		Metric: ansmet.L2, Elem: ansmet.Float32,
		EfConstruction: 20, Mutable: true, RepairEvery: 3,
	}
}

// TestWALCrashPointEveryOffset is the acceptance-criteria crash sweep: a
// journal is cut at EVERY byte offset (a crash can tear a write anywhere),
// and recovery from each prefix must (a) succeed, (b) replay exactly the
// records whose fsync had completed at the cut — wal.Scan is the oracle —
// and (c) be state-identical to a reference database that applied exactly
// those acknowledged ops. No acknowledged write is ever lost; no torn
// record is ever half-applied.
func TestWALCrashPointEveryOffset(t *testing.T) {
	vecs := makeVectors(64, 16, 0.7)
	ops := scriptOps(64, 16)
	dir := t.TempDir()

	full, err := ansmet.New(vecs, crashOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := full.AttachWAL(filepath.Join(dir, "full.wal")); err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		switch op.kind {
		case "add":
			_, err = full.Add(op.vec)
		case "delete":
			err = full.Delete(op.id)
		case "update":
			_, err = full.Update(op.id, op.vec)
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := full.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "full.wal"))
	if err != nil {
		t.Fatal(err)
	}

	// References, memoized per acknowledged-op count: refs[m] applied
	// ops[:m] directly, no journal. Each journal record is one op.
	refs := make([]*ansmet.Database, len(ops)+1)
	reference := func(tb *testing.T, m int) *ansmet.Database {
		if refs[m] != nil {
			return refs[m]
		}
		db, err := ansmet.New(vecs, crashOpts())
		if err != nil {
			tb.Fatal(err)
		}
		for _, op := range ops[:m] {
			switch op.kind {
			case "add":
				_, err = db.Add(op.vec)
			case "delete":
				err = db.Delete(op.id)
			case "update":
				_, err = db.Update(op.id, op.vec)
			}
			if err != nil {
				tb.Fatal(err)
			}
		}
		refs[m] = db
		return db
	}
	queries := makeVectors(2, 16, 2.9)

	for cut := 0; cut <= len(data); cut++ {
		recs, _, _ := wal.Scan(data[:cut], 0) // the acknowledged prefix
		m := len(recs)

		path := filepath.Join(dir, "cut.wal")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := ansmet.New(vecs, crashOpts())
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.AttachWAL(path); err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		if got := rec.Stats().WALReplayed; got != uint64(m) {
			t.Fatalf("cut %d: replayed %d records, journal holds %d complete", cut, got, m)
		}
		ref := reference(t, m)
		if rec.Len() != ref.Len() || rec.Tombstones() != ref.Tombstones() {
			t.Fatalf("cut %d: Len/Tombstones %d/%d, want %d/%d",
				cut, rec.Len(), rec.Tombstones(), ref.Len(), ref.Tombstones())
		}
		for _, q := range queries {
			a, err := rec.SearchInto(q, 5, 24, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ref.SearchInto(q, 5, 24, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("cut %d: recovered results diverge from %d-op reference:\n%v\n%v", cut, m, a, b)
			}
		}
		// The truncated-and-recovered journal must accept new writes: the
		// torn tail was discarded, sequence numbers continue from m.
		if _, err := rec.Add(vecs[0]); err != nil {
			t.Fatalf("cut %d: post-recovery add: %v", cut, err)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzWALReplay feeds arbitrary bytes to the journal replay path: recovery
// must never panic, and whenever it succeeds the database must be coherent
// (searches return no tombstoned ids, new writes are accepted).
func FuzzWALReplay(f *testing.F) {
	vecs := makeVectors(32, 8, 0.9)
	ops := scriptOps(32, 8)

	// Seed with a genuine journal plus classic corruptions of it.
	seedDir := f.TempDir()
	db, err := ansmet.New(vecs, crashOpts())
	if err != nil {
		f.Fatal(err)
	}
	if err := db.AttachWAL(filepath.Join(seedDir, "seed.wal")); err != nil {
		f.Fatal(err)
	}
	for _, op := range ops {
		switch op.kind {
		case "add":
			_, err = db.Add(op.vec)
		case "delete":
			err = db.Delete(op.id)
		case "update":
			_, err = db.Update(op.id, op.vec)
		}
		if err != nil {
			f.Fatal(err)
		}
	}
	db.Close()
	valid, err := os.ReadFile(filepath.Join(seedDir, "seed.wal"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:11]) // bare header
	f.Add([]byte{})
	f.Add([]byte("not a journal at all, definitely"))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	reseq := append([]byte(nil), valid...)
	reseq[11+1] ^= 0xff // first record's sequence number
	f.Add(reseq)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := ansmet.New(vecs, crashOpts())
		if err != nil {
			t.Fatal(err)
		}
		if err := db.AttachWAL(path); err != nil {
			return // rejected: fine, as long as it did not panic
		}
		defer db.Close()
		res, err := db.SearchInto(vecs[3], 5, 24, nil)
		if err != nil {
			t.Fatalf("search after replay: %v", err)
		}
		for _, n := range res {
			if db.Deleted(n.ID) {
				t.Fatalf("replayed database returned tombstoned id %d", n.ID)
			}
		}
		if _, err := db.Add(vecs[1]); err != nil {
			t.Fatalf("add after replay: %v", err)
		}
	})
}
