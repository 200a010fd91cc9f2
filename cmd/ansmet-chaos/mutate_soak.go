// Mutation soak: drives the live mutable index through the three hostile
// schedules the durability design must survive (DESIGN.md, "Mutable index
// and durability semantics"):
//
//  1. Crash-point recovery: the journal of a mutation run is cut at torn
//     offsets — every record boundary, its neighborhood, and a seeded
//     random sample of mid-record offsets — and recovery from each prefix
//     must equal a reference database rebuilt from exactly the
//     acknowledged ops (the complete records before the cut). No
//     acknowledged write lost, no torn record half-applied.
//  2. Concurrent mutate/search: one writer streams adds, deletes, updates
//     and forced repairs while searchers hammer the host beam, tiered,
//     exact and ndp beam paths — every answer is full (k results: far more
//     than k vectors stay live), no search started after a delete acked
//     may return the tombstoned id, every reported distance must match the
//     stored vector, and nothing may panic or leak goroutines.
//  3. Post-soak recovery equivalence: the journal written during the
//     concurrent soak replays into a database state-identical to a
//     straight-line rebuild of the full acknowledged history.
package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"

	"ansmet"
	"ansmet/internal/leakcheck"
	"ansmet/internal/stats"
	"ansmet/internal/vecmath"
	"ansmet/internal/wal"
)

// mutDim is deliberately small: journal records scale with dimension, and
// the crash sweep rebuilds a database per cut.
const mutDim = 24

func mutVectors(n int, seed uint64) [][]float32 {
	rng := stats.NewRNG(seed)
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, mutDim)
		for d := range v {
			v[d] = float32(rng.NormFloat64())
		}
		out[i] = v
	}
	return out
}

func mutOpts() ansmet.Options {
	return ansmet.Options{
		Metric: ansmet.L2, Elem: ansmet.Float32,
		EfConstruction: 30, Seed: 5, Mutable: true, RepairEvery: 5,
	}
}

// mutOp is one acknowledged mutation, replayable against a fresh database.
type mutOp struct {
	kind byte // 'a'dd, 'd'elete, 'u'pdate
	id   uint32
	vec  []float32
}

func applyMutOp(db *ansmet.Database, op mutOp) error {
	switch op.kind {
	case 'a':
		_, err := db.Add(op.vec)
		return err
	case 'd':
		return db.Delete(op.id)
	default:
		_, err := db.Update(op.id, op.vec)
		return err
	}
}

// rebuildFromHistory replays acked ops onto a fresh build of the base
// vectors — the reference every recovery is compared against.
func rebuildFromHistory(base [][]float32, ops []mutOp) (*ansmet.Database, error) {
	db, err := ansmet.New(base, mutOpts())
	if err != nil {
		return nil, err
	}
	for i, op := range ops {
		if err := applyMutOp(db, op); err != nil {
			return nil, fmt.Errorf("reference op %d: %w", i, err)
		}
	}
	return db, nil
}

// equalState compares everything a client can observe between a recovered
// database and its reference.
func equalState(a, b *ansmet.Database, queries [][]float32) error {
	if a.Len() != b.Len() {
		return fmt.Errorf("Len %d vs %d", a.Len(), b.Len())
	}
	if a.Tombstones() != b.Tombstones() {
		return fmt.Errorf("Tombstones %d vs %d", a.Tombstones(), b.Tombstones())
	}
	for qi, q := range queries {
		ra, err := a.SearchInto(q, 10, 40, nil)
		if err != nil {
			return err
		}
		rb, err := b.SearchInto(q, 10, 40, nil)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(ra, rb) {
			return fmt.Errorf("query %d: results diverge\n  recovered: %v\n  reference: %v", qi, ra, rb)
		}
	}
	return nil
}

func runMutateSoak(n int, seed uint64) error {
	baseline := leakcheck.Baseline()
	base := mutVectors(n, seed)
	queries := mutVectors(6, seed+1)
	fresh := mutVectors(256, seed+2)
	dir, err := os.MkdirTemp("", "ansmet-mutate-soak-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// --- 1. crash-point recovery sweep ----------------------------------
	db, err := ansmet.New(base, mutOpts())
	if err != nil {
		return err
	}
	if err := db.AttachWAL(filepath.Join(dir, "sweep.wal")); err != nil {
		return err
	}
	rng := stats.NewRNG(seed + 3)
	var ops []mutOp
	cursor := uint32(1)
	for i := 0; i < 30; i++ {
		var op mutOp
		switch i % 3 {
		case 0:
			op = mutOp{kind: 'a', vec: fresh[i]}
		case 1:
			op = mutOp{kind: 'd', id: cursor}
			cursor += 2
		default:
			op = mutOp{kind: 'u', id: cursor, vec: fresh[i]}
			cursor += 2
		}
		if err := applyMutOp(db, op); err != nil {
			return fmt.Errorf("sweep op %d: %v", i, err)
		}
		ops = append(ops, op)
	}
	if err := db.Close(); err != nil {
		return err
	}
	data, err := os.ReadFile(filepath.Join(dir, "sweep.wal"))
	if err != nil {
		return err
	}

	// Cut set: every record boundary and its ±1 neighborhood (the
	// commit-point edges), plus seeded random mid-record offsets.
	recs, _, _ := wal.Scan(data, 0)
	if len(recs) != len(ops) {
		return fmt.Errorf("journal holds %d records for %d ops", len(recs), len(ops))
	}
	cuts := map[int]bool{0: true, 1: true, len(data): true}
	off := 11 // journal header
	for _, r := range recs {
		end := off + 17 + len(r.Payload) // record overhead + payload
		for _, c := range []int{off, end - 1, end, end + 1} {
			if c >= 0 && c <= len(data) {
				cuts[c] = true
			}
		}
		off = end
	}
	for i := 0; i < 60; i++ {
		cuts[int(rng.Uint64()%uint64(len(data)+1))] = true
	}

	refs := map[int]*ansmet.Database{}
	checked := 0
	for cut := range cuts {
		prefix, _, _ := wal.Scan(data[:cut], 0)
		m := len(prefix)
		path := filepath.Join(dir, "cut.wal")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			return err
		}
		rec, err := ansmet.New(base, mutOpts())
		if err != nil {
			return err
		}
		if err := rec.AttachWAL(path); err != nil {
			return fmt.Errorf("cut %d: recovery failed: %v", cut, err)
		}
		if got := rec.Stats().WALReplayed; got != uint64(m) {
			return fmt.Errorf("cut %d: replayed %d records, want %d", cut, got, m)
		}
		if refs[m] == nil {
			if refs[m], err = rebuildFromHistory(base, ops[:m]); err != nil {
				return err
			}
		}
		if err := equalState(rec, refs[m], queries); err != nil {
			return fmt.Errorf("cut %d (%d acked ops): %v", cut, m, err)
		}
		rec.Close()
		checked++
	}
	fmt.Printf("  crash sweep: %d cut points, all recoveries ≡ acknowledged history\n", checked)

	// --- 2. concurrent mutate/search ------------------------------------
	db, err = ansmet.New(base, mutOpts())
	if err != nil {
		return err
	}
	if err := db.AttachWAL(filepath.Join(dir, "soak.wal")); err != nil {
		return err
	}
	var (
		stop     atomic.Bool
		ackMu    sync.Mutex
		acked    []mutOp // the acknowledged-write history, in ack order
		ackDead  []uint32
		searches atomic.Uint64
		firstErr atomic.Value
	)
	fail := func(err error) {
		firstErr.CompareAndSwap(nil, err)
		stop.Store(true)
	}
	deadSnapshot := func() map[uint32]bool {
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
	go func() { // single writer
		defer wg.Done()
		wrng := stats.NewRNG(seed + 4)
		cursor := uint32(0)
		for i := 0; !stop.Load(); i++ {
			var op mutOp
			switch wrng.Uint64() % 4 {
			case 0, 1:
				op = mutOp{kind: 'a', vec: fresh[wrng.Intn(len(fresh))]}
			case 2:
				op = mutOp{kind: 'd', id: cursor}
				cursor++
			default:
				op = mutOp{kind: 'u', id: cursor, vec: fresh[wrng.Intn(len(fresh))]}
				cursor++
			}
			if int(cursor) >= n {
				stop.Store(true)
				return
			}
			if err := applyMutOp(db, op); err != nil {
				fail(fmt.Errorf("writer op %d: %v", i, err))
				return
			}
			ackMu.Lock()
			acked = append(acked, op)
			if op.kind != 'a' {
				ackDead = append(ackDead, op.id)
			}
			ackMu.Unlock()
			if i%64 == 63 {
				db.Maintain()
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				q := queries[(i+w)%len(queries)]
				dead := deadSnapshot()
				var res []ansmet.Neighbor
				var err error
				switch i % 4 {
				case 0:
					res, err = db.SearchInto(q, 10, 40, nil)
				case 1:
					res, _, err = db.TieredSearchInto(q, 10, 0, nil)
				case 2:
					var r ansmet.Result
					r, err = db.Do(context.Background(), &ansmet.Query{Vector: q, K: 10, Route: ansmet.RouteExact})
					res = r.Neighbors
				default:
					var r ansmet.Result
					r, err = db.Do(context.Background(), &ansmet.Query{Vector: q, K: 10, Ef: 40, Route: ansmet.RouteNDP})
					res = r.Neighbors
				}
				if err != nil {
					fail(fmt.Errorf("searcher %d: %v", w, err))
					return
				}
				if len(res) != 10 {
					fail(fmt.Errorf("searcher %d, route %d of 4: %d results, want 10", w, i%4, len(res)))
					return
				}
				for _, nb := range res {
					if dead[nb.ID] {
						fail(fmt.Errorf("search returned id %d deleted before it started", nb.ID))
						return
					}
					v, ok := db.Vector(nb.ID)
					if !ok {
						fail(fmt.Errorf("result id %d has no stored vector", nb.ID))
						return
					}
					if d := vecmath.L2.Distance(q, v); math.Abs(d-nb.Dist) > 1e-3*(1+math.Abs(d)) {
						fail(fmt.Errorf("id %d: dist %v vs stored-vector %v (torn read?)", nb.ID, nb.Dist, d))
						return
					}
				}
				searches.Add(1)
			}
		}(w)
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return err
	}
	st := db.Stats()
	fmt.Printf("  concurrent soak: %d searches against %d adds / %d deletes / %d updates / %d repair batches\n",
		searches.Load(), st.Adds, st.Deletes, st.Updates, st.RepairBatches)

	// --- 3. post-soak recovery equivalence ------------------------------
	if err := db.Close(); err != nil {
		return err
	}
	ref, err := rebuildFromHistory(base, acked)
	if err != nil {
		return err
	}
	rec, err := ansmet.New(base, mutOpts())
	if err != nil {
		return err
	}
	if err := rec.AttachWAL(filepath.Join(dir, "soak.wal")); err != nil {
		return fmt.Errorf("post-soak recovery: %v", err)
	}
	if err := equalState(rec, ref, queries); err != nil {
		return fmt.Errorf("post-soak recovery vs acknowledged history: %v", err)
	}
	rec.Close()
	fmt.Printf("  post-soak recovery ≡ %d-op acknowledged history\n", len(acked))

	return leakcheck.Settle(baseline)
}
