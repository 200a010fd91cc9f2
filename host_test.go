package ansmet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"ansmet/internal/dataset"
	"ansmet/internal/engine"
)

// hostCase is one row of TestHostEquivalence: a population, the vectors a
// mutable build appends to it, and the options both builds share.
type hostCase struct {
	name             string
	vectors, queries [][]float32
	appends          [][]float32
	opts             Options
	// wantOutliers demands a prefix-eliminated store with outlier-encoded
	// vectors, whose accepted compares take the backup re-check path.
	wantOutliers bool
}

func hostCases() []hostCase {
	gen := func(profile string, seed uint64) (vectors, queries, appends [][]float32) {
		p := dataset.ProfileByName(profile)
		ds := dataset.Generate(p, 600, 6, seed)
		return ds.Vectors, ds.Queries, dataset.Generate(p, 24, 0, seed+1000).Vectors
	}
	unit := func(vs [][]float32) [][]float32 {
		out := make([][]float32, len(vs))
		for i, v := range vs {
			out[i] = append([]float32(nil), v...)
			Normalize(out[i])
		}
		return out
	}
	sv, sq, sa := gen("SIFT", 71)
	pv, pq, pa := gen("SPACEV", 72)
	dv, dq, da := gen("DEEP", 73)
	gv, gq, ga := gen("GloVe", 74)
	o := func(m Metric, e ElemType) Options {
		return Options{Metric: m, Elem: e, EfConstruction: 60, Seed: 7}
	}
	return []hostCase{
		{"sift-u8", sv, sq, sa, o(L2, Uint8), false},
		{"spacev-i8-prefix", pv, pq, pa, o(L2, Int8), true},
		{"deep-f32-l2", dv, dq, da, o(L2, Float32), false},
		{"glove-f32-ip", gv, gq, ga, o(InnerProduct, Float32), false},
		{"deep-f32-cosine", unit(dv), unit(dq), unit(da), o(Cosine, Float32), false},
		{"deep-fp16", dv, dq, da, o(L2, Float16), false},
		{"deep-bf16", dv, dq, da, o(L2, BFloat16), false},
	}
}

// sameBits fails unless a and b hold the same ids and the same distance
// bits, position by position.
func sameBits(t *testing.T, label string, a, b []Neighbor) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d results against %d\n  %v\n  %v", label, len(a), len(b), a, b)
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			t.Fatalf("%s: result %d is (%d, %x) against (%d, %x)", label, i,
				a[i].ID, math.Float64bits(a[i].Dist), b[i].ID, math.Float64bits(b[i].Dist))
		}
	}
}

// searcher is what the identity is checked through: a Database or a
// Cluster, one query or a batch.
type searcher struct {
	name string
	do   func(q *Query) ([]Neighbor, Route, error)
	// many is nil where there is no batch entry (Cluster).
	many func(queries [][]float32, plan *Query) ([][]Neighbor, Route, error)
}

func dbSearcher(db *Database) searcher {
	ctx := context.Background()
	return searcher{"Do",
		func(q *Query) ([]Neighbor, Route, error) {
			res, err := db.Do(ctx, q)
			return res.Neighbors, res.Route, err
		},
		func(queries [][]float32, plan *Query) ([][]Neighbor, Route, error) {
			return db.DoMany(ctx, queries, plan, 3)
		}}
}

func clusterSearcher(cl *Cluster) searcher {
	return searcher{name: "Cluster.Do", do: func(q *Query) ([]Neighbor, Route, error) {
		res, err := cl.Do(context.Background(), q)
		if err == nil && res.Partial {
			err = errors.New("partial cluster answer")
		}
		return res.Neighbors, res.Route, err
	}}
}

// checkIdentity drives one searcher through {K 1/10} × {Ef default/128} ×
// {nil, non-nil Filter}: host ≡ ndp and exact ≡ tiered at budget 1, in ids
// and distance bits, for single queries and (where there is one) the batch
// entry. live is the number of live vectors behind the searcher, deleted
// the acknowledged deletes.
func checkIdentity(t *testing.T, name string, s searcher, queries [][]float32, live int, deleted map[uint32]bool) {
	t.Helper()
	odd := func(id uint32) bool { return id%2 == 1 }
	run := func(label string, q Query, route Route) []Neighbor {
		q.Route = route
		nn, got, err := s.do(&q)
		if err != nil || got != route {
			t.Fatalf("%s %v: route=%v err=%v", label, route, got, err)
		}
		for _, n := range nn {
			if deleted[n.ID] || (q.Filter != nil && !q.Filter(n.ID)) {
				t.Fatalf("%s %v: returned deleted or filtered-out id %d", label, route, n.ID)
			}
		}
		return append([]Neighbor(nil), nn...)
	}
	batch := func(label string, plan Query, route Route) [][]Neighbor {
		plan.Route = route
		out, got, err := s.many(queries, &plan)
		if err != nil || got != route {
			t.Fatalf("%s DoMany %v: route=%v err=%v", label, route, got, err)
		}
		return out
	}
	for _, k := range []int{1, 10} {
		for _, ef := range []int{0, 128} {
			for _, f := range []func(uint32) bool{nil, odd} {
				plan := Query{K: k, Ef: ef, Filter: f}
				label := fmt.Sprintf("%s/%s k=%d ef=%d filter=%v", name, s.name, k, ef, f != nil)
				serial := make([][]Neighbor, len(queries))
				for qi, vec := range queries {
					q := plan
					q.Vector = vec
					host := run(label, q, RouteHost)
					sameBits(t, fmt.Sprintf("%s q%d host≡ndp", label, qi), host, run(label, q, RouteNDP))
					if len(host) != k {
						t.Fatalf("%s q%d: %d results, want %d", label, qi, len(host), k)
					}
					serial[qi] = host
				}
				if s.many == nil {
					continue
				}
				host, ndp := batch(label, plan, RouteHost), batch(label, plan, RouteNDP)
				for qi := range queries {
					sameBits(t, fmt.Sprintf("%s q%d DoMany host≡ndp", label, qi), host[qi], ndp[qi])
					sameBits(t, fmt.Sprintf("%s q%d DoMany≡Do", label, qi), host[qi], serial[qi])
				}
			}
		}
		label := fmt.Sprintf("%s/%s k=%d", name, s.name, k)
		one := Query{K: k, Budget: 1}
		for qi, vec := range queries {
			q := one
			q.Vector = vec
			exact := run(label, q, RouteExact)
			sameBits(t, fmt.Sprintf("%s q%d exact≡tiered", label, qi), exact, run(label, q, RouteTiered))
			if len(exact) != min(k, live) {
				t.Fatalf("%s q%d: exact returned %d of %d live", label, qi, len(exact), live)
			}
		}
		if s.many != nil {
			exact, tiered := batch(label, one, RouteExact), batch(label, one, RouteTiered)
			for qi := range queries {
				sameBits(t, fmt.Sprintf("%s q%d DoMany exact≡tiered", label, qi), exact[qi], tiered[qi])
			}
		}
	}
}

// capabilityHidden is the host engine seen through engine.Engine alone:
// embedding the interface hides engine.Batcher, as every wrapper does, so
// the traversal falls back to its per-id adapter around Compare.
type capabilityHidden struct{ engine.Engine }

// checkBatchedIdentity is the "capability hidden" arm: the host beam's
// batched hop (hint the hop's rows, one Distances call, one accept loop)
// returns what the per-id adapter returns over the same engine — ids and
// distance bits — for {nil, non-nil Filter} × {K 1/10} × {Ef default/128} ×
// {BeamBatch 8, 1}, and at the database's own batch that is the answer
// Do(RouteHost) serves.
func checkBatchedIdentity(t *testing.T, name string, db *Database, queries [][]float32) {
	t.Helper()
	s := db.getScratch()
	defer db.putScratch(s)
	host := db.hostEngine(s)
	if _, ok := engine.Engine(host).(engine.Batcher); !ok {
		t.Fatalf("%s: the host engine lost the batch capability", name)
	}
	hidden := capabilityHidden{host}
	if _, ok := engine.Engine(hidden).(engine.Batcher); ok {
		t.Fatalf("%s: the wrapper does not hide the batch capability", name)
	}
	odd := func(id uint32) bool { return id%2 == 1 }
	for _, k := range []int{1, 10} {
		for _, ef := range []int{0, 128} {
			for _, f := range []func(uint32) bool{nil, odd} {
				for _, batch := range []int{8, 1} {
					for qi, vec := range queries {
						label := fmt.Sprintf("%s k=%d ef=%d filter=%v batch=%d q%d", name, k, ef, f != nil, batch, qi)
						plan := Query{Vector: vec, K: k, Ef: ef, Filter: f, Route: RouteHost}
						qq := quantizeInto(s.qq, vec, db.opts.Elem)
						filter := db.combineFilter(f)
						batched, _ := db.index.SearchCancelInto(nil, qq, k, plan.beam(), batch, filter, host, nil, nil)
						perID, _ := db.index.SearchCancelInto(nil, qq, k, plan.beam(), batch, filter, hidden, nil, nil)
						sameBits(t, label+" batched≡per-id", batched, perID)
						if batch != db.cfg.BeamBatch {
							continue
						}
						res, err := db.Do(context.Background(), &plan)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						sameBits(t, label+" Do≡per-id", res.Neighbors, perID)
					}
				}
			}
		}
	}
}

// TestHostEquivalence pins the contract the host defaults rest on: the host
// beam returns what the ndp beam returns and the exact scan what the tiered
// route returns at budget 1 — the same
// ids and the same distance bits — for every K, Ef, Filter and tombstone
// state, through Do, DoMany and a 4-shard Cluster.Do. The engines differ in
// how a distance is computed (SIMD over a row against bit planes fetched
// until a bound decides), never in which distance: a fully-fetched bound is
// bitwise the exact distance, and an early-termination reject is sound. Under
// the same table, checkBatchedIdentity pins the host beam's batched hop to
// the per-id adapter (the same engine with its batch capability hidden), at
// BeamBatch 8 and 1. CI runs it at every kernel level (AVX2,
// ANSMET_NO_SIMD=1, and -tags purego, where the prefetch is a no-op).
//
// Cluster has no mutation API, so the sharded axis runs on the immutable
// build only.
func TestHostEquivalence(t *testing.T) {
	cases := hostCases()
	for _, hc := range cases {
		db, err := New(hc.vectors, hc.opts)
		if err != nil {
			t.Fatal(err)
		}
		checkIdentity(t, hc.name, dbSearcher(db), hc.queries, db.Len(), nil)
		if st := db.System().Store; hc.wantOutliers && (st.Prefix.PrefixLen == 0 || st.NumOutliers() == 0) {
			t.Fatalf("%s: prefix %d bits, %d outliers: the backup re-check path is not exercised", hc.name, st.Prefix.PrefixLen, st.NumOutliers())
		}
		checkBatchedIdentity(t, hc.name, db, hc.queries)

		// The exact route's traffic is the honest full fetch.
		res, err := db.Do(context.Background(), &Query{Vector: hc.queries[0], K: 10, Route: RouteExact})
		plain := (len(hc.vectors[0])*hc.opts.Elem.Bytes() + 63) / 64
		if err != nil || res.Lines != db.Len()*plain {
			t.Fatalf("%s: exact scan reports %d lines (err %v), want %d rows × %d", hc.name, res.Lines, err, db.Len(), plain)
		}

		cl, err := NewCluster(hc.vectors, ClusterOptions{Shards: 4, Build: hc.opts, DisableHedging: true})
		if err != nil {
			t.Fatal(err)
		}
		checkIdentity(t, hc.name, clusterSearcher(cl), hc.queries, cl.Len(), nil)

		// Mutable: deletes and appends, one forced repair, then a few more
		// deletes left pending.
		mopts := hc.opts
		mopts.Mutable, mopts.RepairEvery = true, 8
		mdb, err := New(hc.vectors, mopts)
		if err != nil {
			t.Fatal(err)
		}
		deleted := map[uint32]bool{}
		del := func(id uint32) {
			if err := mdb.Delete(id); err != nil {
				t.Fatal(err)
			}
			deleted[id] = true
		}
		for i := 0; i < 30; i++ {
			del(uint32(7 + 19*i))
		}
		for _, v := range hc.appends {
			if _, err := mdb.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		mdb.Maintain()
		del(2)
		del(uint32(len(hc.vectors) + 3)) // an appended vector
		if mdb.Stats().PendingRepair != 2 {
			t.Fatalf("%s: %d repairs pending, want 2", hc.name, mdb.Stats().PendingRepair)
		}
		checkIdentity(t, hc.name+"/mutable", dbSearcher(mdb), hc.queries, mdb.Len()-len(deleted), deleted)
		checkBatchedIdentity(t, hc.name+"/mutable", mdb, hc.queries)
	}

	// The identity does not depend on the batch: at the textbook beam
	// (BeamBatch 1) host and ndp still walk the same graph the same way.
	t.Run("BeamBatch=1", func(t *testing.T) {
		hc := cases[0]
		db, err := New(hc.vectors, hc.opts)
		if err != nil {
			t.Fatal(err)
		}
		sys := db.System()
		s := db.getScratch()
		defer db.putScratch(s)
		host, ndp := db.hostEngine(s), sys.NewWorkerEngine()
		odd := func(id uint32) bool { return id%2 == 1 }
		for _, k := range []int{1, 10} {
			for _, ef := range []int{0, 128} {
				for _, f := range []func(uint32) bool{nil, odd} {
					for qi, vec := range hc.queries {
						label := fmt.Sprintf("batch1 k=%d ef=%d filter=%v q%d", k, ef, f != nil, qi)
						plan := Query{K: k, Ef: ef}
						qq := quantizeInto(s.qq, vec, db.opts.Elem)
						a := sys.Index.SearchFilteredInto(qq, k, plan.beam(), 1, f, host, nil, nil)
						b := sys.Index.SearchFilteredInto(qq, k, plan.beam(), 1, f, ndp, nil, nil)
						sameBits(t, label+" host≡ndp", a, b)
						if len(a) != k {
							t.Fatalf("%s: %d results, want %d", label, len(a), k)
						}
					}
				}
			}
		}
	})
}
