package ansmet_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"ansmet"
	"ansmet/internal/dataset"
)

// TestTieredSearchMatchesExactSearch: the public tiered entry point at the
// default budget (1) returns byte-identical results to the exact route.
func TestTieredSearchMatchesExactSearch(t *testing.T) {
	db := benchDB()
	ds := benchData()
	var dst []ansmet.Neighbor
	for qi := 0; qi < 6; qi++ {
		want, _, err := exactSearch(db, ds.Queries[qi], 10)
		if err != nil {
			t.Fatal(err)
		}
		var stats ansmet.TieredStats
		dst, stats, err = db.TieredSearchInto(ds.Queries[qi], 10, 0, dst)
		if err != nil {
			t.Fatal(err)
		}
		if len(dst) != len(want) {
			t.Fatalf("q%d: %d results, want %d", qi, len(dst), len(want))
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("q%d result %d: %+v != %+v", qi, i, dst[i], want[i])
			}
		}
		if stats.Pool == 0 || stats.BoundLines == 0 {
			t.Fatalf("q%d: implausible stats %+v", qi, stats)
		}
	}
}

// TestTieredSteadyStateAllocs gates the tiered pipeline's zero-allocation
// invariant: once the scratch pools are warm, a TieredSearchInto query with
// a reused dst performs zero heap allocations.
func TestTieredSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	db := benchDB()
	ds := benchData()
	var (
		dst []ansmet.Neighbor
		err error
	)
	for i := 0; i < 4; i++ {
		if dst, _, err = db.TieredSearchInto(ds.Queries[i%len(ds.Queries)], 10, 0, dst); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(100, func() {
		dst, _, err = db.TieredSearchInto(ds.Queries[i%len(ds.Queries)], 10, 0, dst)
		i++
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Fatalf("TieredSearchInto allocates %.1f objects/query at steady state, want 0", avg)
	}
}

// routed runs one query through Do on the given route.
func routed(ctx context.Context, db *ansmet.Database, q []float32, k, ef int, route ansmet.Route) ([]ansmet.Neighbor, ansmet.Route, error) {
	res, err := db.Do(ctx, &ansmet.Query{Vector: q, K: k, Ef: ef, Route: route})
	return res.Neighbors, res.Route, err
}

// TestSearchRoutedModes: explicit modes execute (and report) the named
// path, and the results match the path's dedicated entry point.
func TestSearchRoutedModes(t *testing.T) {
	db := benchDB()
	ds := benchData()
	ctx := context.Background()
	q := ds.Queries[0]

	nn, route, err := routed(ctx, db, q, 10, 64, ansmet.RouteNDP)
	if err != nil || route != ansmet.RouteNDP {
		t.Fatalf("ndp: route=%v err=%v", route, err)
	}
	want, err := db.SearchInto(q, 10, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if nn[i] != want[i] {
			t.Fatalf("ndp result %d: %+v != %+v", i, nn[i], want[i])
		}
	}

	nn, route, err = routed(ctx, db, q, 10, 64, ansmet.RouteTiered)
	if err != nil || route != ansmet.RouteTiered {
		t.Fatalf("tiered: route=%v err=%v", route, err)
	}
	exact, _, err := exactSearch(db, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		if nn[i] != exact[i] {
			t.Fatalf("tiered result %d: %+v != %+v", i, nn[i], exact[i])
		}
	}

	nn, route, err = routed(ctx, db, q, 10, 64, ansmet.RouteExact)
	if err != nil || route != ansmet.RouteExact {
		t.Fatalf("exact: route=%v err=%v", route, err)
	}
	for i := range exact {
		if nn[i] != exact[i] {
			t.Fatalf("exact result %d: %+v != %+v", i, nn[i], exact[i])
		}
	}

	// The host beam is what SearchInto runs on this database, and the ndp
	// beam's answer.
	nn, route, err = routed(ctx, db, q, 10, 64, ansmet.RouteHost)
	if err != nil || route != ansmet.RouteHost {
		t.Fatalf("host: route=%v err=%v", route, err)
	}
	for i := range want {
		if nn[i] != want[i] {
			t.Fatalf("host result %d: %+v != %+v", i, nn[i], want[i])
		}
	}

	st := db.RouterStats()
	if st.NDP == 0 || st.Tiered == 0 || st.Exact == 0 || st.Host == 0 {
		t.Fatalf("router counters not advancing: %+v", st)
	}
}

// TestSearchRoutedAuto: without a deadline auto picks the quality route —
// the exact scan — on a healthy, idle database (the slack and load legs of
// the policy are pinned on the router itself, internal/engine); a stated
// Budget decides without the router; with an already-expired context it
// rejects up front like every Ctx entry point.
func TestSearchRoutedAuto(t *testing.T) {
	db := benchDB()
	ds := benchData()

	nn, route, err := routed(context.Background(), db, ds.Queries[0], 10, 64, ansmet.RouteAuto)
	if err != nil || route != ansmet.RouteExact {
		t.Fatalf("auto healthy idle: route=%v err=%v", route, err)
	}
	if len(nn) != 10 {
		t.Fatalf("auto returned %d results", len(nn))
	}

	for _, c := range []struct {
		budget float64
		want   ansmet.Route
	}{{1, ansmet.RouteExact}, {2, ansmet.RouteExact}, {0.9, ansmet.RouteTiered}, {-1, ansmet.RouteExact}} {
		res, err := db.Do(context.Background(), &ansmet.Query{Vector: ds.Queries[0], K: 10, Budget: c.budget})
		if err != nil || res.Route != c.want {
			t.Fatalf("auto with Budget %v: route=%v err=%v, want %v", c.budget, res.Route, err, c.want)
		}
	}

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, _, err = routed(expired, db, ds.Queries[0], 10, 64, ansmet.RouteAuto)
	var ce *ansmet.CancelError
	if !errors.As(err, &ce) || ce.Partial {
		t.Fatalf("expired context: err=%v", err)
	}
}

// TestSearchRoutedBaseDesignDegradesTiered: on a Base design (no bound
// machinery) the tiered route degrades to the exact scan instead of
// failing.
func TestSearchRoutedBaseDesignDegradesTiered(t *testing.T) {
	p := dataset.ProfileByName("SIFT")
	ds := dataset.Generate(p, 300, 4, 7)
	db, err := ansmet.New(ds.Vectors, ansmet.Options{
		Metric: p.Metric, Elem: p.Elem, Design: ansmet.UseDesign(ansmet.CPUBase),
		EfConstruction: 60, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	nn, route, err := routed(context.Background(), db, ds.Queries[0], 5, 32, ansmet.RouteTiered)
	if err != nil || route != ansmet.RouteExact {
		t.Fatalf("base tiered: route=%v err=%v", route, err)
	}
	want, _, err := exactSearch(db, ds.Queries[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if nn[i] != want[i] {
			t.Fatalf("base tiered result %d: %+v != %+v", i, nn[i], want[i])
		}
	}
	// TieredSearchInto itself also degrades, reporting the whole population
	// as the pool.
	nn2, stats, err := db.TieredSearchInto(ds.Queries[0], 5, 0, nil)
	if err != nil || stats.Pool != db.Len() {
		t.Fatalf("base TieredSearch: stats=%+v err=%v", stats, err)
	}
	for i := range want {
		if nn2[i] != want[i] {
			t.Fatalf("base TieredSearch result %d: %+v != %+v", i, nn2[i], want[i])
		}
	}
}

// TestSearchManyRouted: a routed batch on every explicit path returns the
// same per-query results as the single-query routed path.
func TestSearchManyRouted(t *testing.T) {
	db := benchDB()
	ds := benchData()
	queries := ds.Queries[:6]
	for _, mode := range []ansmet.Route{ansmet.RouteNDP, ansmet.RouteTiered, ansmet.RouteExact} {
		out, route, err := db.DoMany(context.Background(), queries, &ansmet.Query{K: 10, Ef: 64, Route: mode}, 3)
		if err != nil || route != mode {
			t.Fatalf("%v: route=%v err=%v", mode, route, err)
		}
		for qi, q := range queries {
			want, _, err := routed(context.Background(), db, q, 10, 64, mode)
			if err != nil {
				t.Fatal(err)
			}
			if len(out[qi]) != len(want) {
				t.Fatalf("%v q%d: %d results, want %d", mode, qi, len(out[qi]), len(want))
			}
			for i := range want {
				if out[qi][i] != want[i] {
					t.Fatalf("%v q%d result %d: %+v != %+v", mode, qi, i, out[qi][i], want[i])
				}
			}
		}
	}
	// Expired context rejects up front.
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, _, err := db.DoMany(expired, queries, &ansmet.Query{K: 10, Ef: 64, Route: ansmet.RouteNDP}, 2)
	var ce *ansmet.CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("expired batch: err=%v", err)
	}
}

// TestTieredBudgetKnob: a Query.Budget below 1 still returns k results
// and budget 1 re-ranks at least as large a pool.
func TestTieredBudgetKnob(t *testing.T) {
	p := dataset.ProfileByName("SIFT")
	ds := dataset.Generate(p, 400, 4, 11)
	db, err := ansmet.New(ds.Vectors, ansmet.Options{
		Metric: p.Metric, Elem: p.Elem, EfConstruction: 60, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Do(context.Background(), &ansmet.Query{Vector: ds.Queries[0], K: 5, Route: ansmet.RouteTiered, Budget: 0.8})
	nn, stats := res.Neighbors, res.Tiered
	if err != nil || len(nn) != 5 {
		t.Fatalf("budget 0.8: %d results err=%v (stats %+v)", len(nn), err, stats)
	}
	// Explicit budget 1 re-ranks at least as large a pool.
	_, stats1, err := db.TieredSearchInto(ds.Queries[0], 5, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats1.Pool < stats.Pool {
		t.Fatalf("budget 1 pool %d < budget 0.8 pool %d", stats1.Pool, stats.Pool)
	}
}
