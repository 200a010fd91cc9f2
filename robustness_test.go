package ansmet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyDB builds a small database for input-validation and recovery tests.
func tinyDB(t testing.TB) *Database {
	t.Helper()
	db, err := New(smallVectors(64), Options{Metric: L2, Elem: Float32, EfConstruction: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestSearchInputErrors: every entry point rejects malformed inputs with
// the typed sentinel errors, never a panic or a silent empty result.
func TestSearchInputErrors(t *testing.T) {
	db := tinyDB(t)
	good := make([]float32, 8)

	cases := []struct {
		name string
		call func() error
		want error
	}{
		{"k=0", func() error { _, err := db.Search(good, 0); return err }, ErrBadK},
		{"k<0", func() error { _, err := db.Search(good, -3); return err }, ErrBadK},
		{"ef<k", func() error { _, err := db.SearchInto(good, 10, 5, nil); return err }, ErrBadEf},
		{"tiered ef<k", func() error {
			_, err := db.Do(context.Background(), &Query{Vector: good, K: 10, Ef: 5, Route: RouteTiered})
			return err
		}, ErrBadEf},
		{"short query", func() error { _, err := db.Search(good[:4], 5); return err }, ErrDimension},
		{"long query", func() error { _, err := db.Search(make([]float32, 9), 5); return err }, ErrDimension},
		{"NaN", func() error {
			q := append([]float32(nil), good...)
			q[3] = float32(math.NaN())
			_, err := db.Search(q, 5)
			return err
		}, ErrBadQuery},
		{"+Inf", func() error {
			q := append([]float32(nil), good...)
			q[0] = float32(math.Inf(1))
			_, err := db.Search(q, 5)
			return err
		}, ErrBadQuery},
		{"exact k=0", func() error {
			_, err := db.Do(context.Background(), &Query{Vector: good, K: 0, Route: RouteExact})
			return err
		}, ErrBadK},
		{"filtered NaN", func() error {
			q := append([]float32(nil), good...)
			q[7] = float32(math.NaN())
			_, err := db.Do(context.Background(), &Query{Vector: q, K: 5, Filter: func(uint32) bool { return true }})
			return err
		}, ErrBadQuery},
		{"filter on the exact route", func() error {
			_, err := db.Do(context.Background(), &Query{Vector: good, K: 5, Route: RouteExact, Filter: func(uint32) bool { return true }})
			return err
		}, errFilterRoute},
	}
	for _, tc := range cases {
		err := tc.call()
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want errors.Is(%v)", tc.name, err, tc.want)
		}
	}

	// DoMany stops at the invalid query and names the offender.
	bad := append([]float32(nil), good...)
	bad[2] = float32(math.Inf(-1))
	_, _, err := db.DoMany(context.Background(), [][]float32{good, bad}, &Query{K: 5, Ef: 10, Route: RouteNDP}, 2)
	if !errors.Is(err, ErrBadQuery) || !strings.Contains(err.Error(), "query 1") {
		t.Errorf("DoMany err = %v, want ErrBadQuery naming query 1", err)
	}
}

// TestSearchManyPanicRecovered: a panic inside the route — the plan's Filter
// panics on query 5 — is caught, the remaining queries are cancelled, and the
// panic comes back as an error; the process survives, and the same batch
// afterwards answers bit for bit what it answered before, so no panicked
// worker handed a dirty scratch back to the pool.
func TestSearchManyPanicRecovered(t *testing.T) {
	db := tinyDB(t)
	queries := make([][]float32, 32)
	for i := range queries {
		queries[i], _ = db.Vector(uint32(i))
	}
	ctx := context.Background()
	for _, route := range []Route{RouteNDP, RouteHost} {
		plan := Query{K: 3, Ef: 10, Route: route, Filter: func(id uint32) bool { return id%3 != 0 }}
		before, _, err := db.DoMany(ctx, queries, &plan, 4)
		if err != nil {
			t.Fatal(err)
		}
		// One worker runs the queries in order: query 5 starts at the Filter
		// call after queries 0–4's.
		calls, panicAt := 0, 0
		panicky := plan
		panicky.Filter = func(id uint32) bool {
			if calls++; calls == panicAt {
				panic("injected fault in query 5")
			}
			return plan.Filter(id)
		}
		db.DoMany(ctx, queries[:5], &panicky, 1)
		calls, panicAt = 0, calls+1
		if _, _, err := db.DoMany(ctx, queries, &panicky, 1); err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("%v: DoMany err = %v, want the worker's panic", route, err)
		}
		after, _, err := db.DoMany(ctx, queries, &plan, 4)
		if err != nil {
			t.Fatalf("%v: DoMany after the panic: %v", route, err)
		}
		for qi := range queries {
			sameBits(t, fmt.Sprintf("%v q%d after the panic", route, qi), after[qi], before[qi])
		}
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a database"))); err == nil {
		t.Error("garbage input should fail")
	}
}

// FuzzLoad: Load must return an error — never panic, never OOM-loop — on
// arbitrary bytes, including truncations and mutations of a valid snapshot.
func FuzzLoad(f *testing.F) {
	db := tinyDB(f)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	f.Add([]byte{})
	f.Add([]byte("ANSMETDB3\n"))
	f.Add([]byte("ANSMETDB4\n"))
	f.Add([]byte("ANSMETDB2\n")) // previous (pre-checksum) format version
	f.Add([]byte("not a database at all"))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	mutated := append([]byte(nil), valid...)
	mutated[len(mutated)/3] ^= 0xff
	f.Add(mutated)
	for _, c := range craftedGraphs(f) { // checksum-valid, graph invalid
		f.Add(c.image)
	}
	for _, c := range craftedRows(f) { // checksum-valid, row section invalid
		f.Add(c.image)
	}
	for _, name := range []string{"v3-sift-u8.snap", "v3-deep-f16-live.snap"} { // the older format
		v3, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(v3)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := Load(bytes.NewReader(data))
		if err != nil && db != nil {
			t.Fatal("Load returned both a database and an error")
		}
		if err == nil && db == nil {
			t.Fatal("Load returned neither a database nor an error")
		}
	})
}
