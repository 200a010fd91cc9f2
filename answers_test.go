package ansmet_test

import (
	"context"
	"fmt"
	"testing"

	"ansmet"
	"ansmet/internal/dataset"
)

// TestEveryAnswerHasMinKLive is the answer-size invariant (ROADMAP item 4):
// every route of a Database — immutable, and mutable after ~30 % of its ids
// are deleted and Maintain has run — and of a Cluster over 1 and 3 shards
// answers with exactly min(k, live) results, in canonical (Dist, ID) order,
// with no tombstoned id. The routes that scan (exact, tiered at budget 1,
// auto at Budget 1) run at k past the population; the beam routes run at
// k ≤ 10 on a build asserted fully reachable, the precondition under which
// a beam owes min(k, live) at all.
func TestEveryAnswerHasMinKLive(t *testing.T) {
	p := dataset.ProfileByName("DEEP")
	const n = 96
	ds := dataset.Generate(p, n, 6, 21)
	// The build TestClusterMergeByteIdenticalToUnsharded vetted for full
	// reachability, unsharded and on every shard sub-graph.
	build := ansmet.Options{Metric: p.Metric, Elem: p.Elem, M: 24, MaxDegree: 24, EfConstruction: 200, Seed: 4}

	type target struct {
		name    string
		live    int
		deleted func(id uint32) bool
		do      func(q *ansmet.Query) ([]ansmet.Neighbor, ansmet.Route, error)
	}
	onDB := func(name string, db *ansmet.Database) target {
		return target{name: name, live: db.Len(), deleted: db.Deleted,
			do: func(q *ansmet.Query) ([]ansmet.Neighbor, ansmet.Route, error) {
				res, err := db.Do(context.Background(), q)
				return res.Neighbors, res.Route, err
			}}
	}
	var targets []target

	imm, err := ansmet.New(ds.Vectors, build)
	if err != nil {
		t.Fatal(err)
	}
	targets = append(targets, onDB("immutable", imm))

	mb := build
	mb.Mutable = true
	mut, err := ansmet.New(ds.Vectors, mb)
	if err != nil {
		t.Fatal(err)
	}
	deleted := 0
	for id := uint32(0); id < n; id++ {
		if id%10 < 3 {
			if err := mut.Delete(id); err != nil {
				t.Fatal(err)
			}
			deleted++
		}
	}
	mut.Maintain()
	m := onDB("mutable", mut)
	m.live = n - deleted
	targets = append(targets, m)

	for _, shards := range []int{1, 3} {
		cl, err := ansmet.NewCluster(ds.Vectors, ansmet.ClusterOptions{Shards: shards, Build: build, DisableHedging: true})
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, target{name: fmt.Sprintf("cluster/%d", shards), live: n,
			deleted: func(uint32) bool { return false },
			do: func(q *ansmet.Query) ([]ansmet.Neighbor, ansmet.Route, error) {
				res, err := cl.Do(context.Background(), q)
				return res.Neighbors, res.Route, err
			}})
	}

	routes := []struct {
		name  string
		q     ansmet.Query
		want  ansmet.Route
		scans bool // k may exceed the population
	}{
		{"host", ansmet.Query{Route: ansmet.RouteHost}, ansmet.RouteHost, false},
		{"ndp", ansmet.Query{Route: ansmet.RouteNDP}, ansmet.RouteNDP, false},
		{"tiered", ansmet.Query{Route: ansmet.RouteTiered, Budget: 1}, ansmet.RouteTiered, true},
		{"exact", ansmet.Query{Route: ansmet.RouteExact}, ansmet.RouteExact, true},
		{"auto", ansmet.Query{Budget: 1}, ansmet.RouteExact, true},
	}
	for _, tg := range targets {
		for qi, q := range ds.Queries {
			nn, _, err := tg.do(&ansmet.Query{Vector: q, K: n, Ef: n + 16, Route: ansmet.RouteHost})
			if err != nil {
				t.Fatal(err)
			}
			assertFullyReachable(t, fmt.Sprintf("%s q%d", tg.name, qi), len(nn), tg.live)
		}
		for _, rt := range routes {
			ks := []int{1, 10}
			if rt.scans {
				ks = append(ks, n+5)
			}
			for _, k := range ks {
				for qi, q := range ds.Queries {
					sq := rt.q
					sq.Vector, sq.K = q, k
					nn, route, err := tg.do(&sq)
					where := fmt.Sprintf("%s %s k=%d q%d", tg.name, rt.name, k, qi)
					if err != nil || route != rt.want {
						t.Fatalf("%s: route %v err %v, want route %v", where, route, err, rt.want)
					}
					if want := min(k, tg.live); len(nn) != want {
						t.Fatalf("%s: %d results, want min(k, live) = %d", where, len(nn), want)
					}
					for j, nb := range nn {
						if tg.deleted(nb.ID) {
							t.Fatalf("%s: result %d is deleted id %d", where, j, nb.ID)
						}
						if j > 0 && (nb.Dist < nn[j-1].Dist || nb.Dist == nn[j-1].Dist && nb.ID <= nn[j-1].ID) {
							t.Fatalf("%s: results %d, %d out of (Dist, ID) order: %+v %+v", where, j-1, j, nn[j-1], nb)
						}
					}
				}
			}
		}
	}
}
