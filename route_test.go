package ansmet_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"ansmet"
	"ansmet/internal/dataset"
)

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
