// Hot-path allocation gates: the pooled search pipeline must not allocate
// at steady state. These run as ordinary tests so a regression fails the
// build rather than just shifting a benchmark number.
package ansmet_test

import (
	"context"
	"testing"
	"time"

	"ansmet"
)

// TestSearchSteadyStateAllocs gates the tentpole property: once the pools
// are warm, a SearchInto query performs zero heap allocations.
func TestSearchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	db := benchDB()
	ds := benchData()
	var (
		dst []ansmet.Neighbor
		err error
	)
	// Warm the pools: first queries grow scratch buffers and build the
	// bounder's lazy per-query contribution tables.
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
		t.Fatalf("SearchInto allocates %.1f objects/query at steady state, want 0", avg)
	}
}

// TestSearchCtxSteadyStateAllocs extends the zero-allocation gate to the
// deadline-aware path: with a live (non-expiring) context, SearchCtxInto
// must cost exactly what SearchInto costs — the cancellation checkpoints
// are a counter increment plus a non-blocking channel poll, nothing heap-
// allocated.
func TestSearchCtxSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	db := benchDB()
	ds := benchData()
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	var (
		dst []ansmet.Neighbor
		err error
	)
	for i := 0; i < 4; i++ {
		if dst, err = db.SearchCtxInto(ctx, ds.Queries[i%len(ds.Queries)], 10, 64, dst); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(100, func() {
		dst, err = db.SearchCtxInto(ctx, ds.Queries[i%len(ds.Queries)], 10, 64, dst)
		i++
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Fatalf("SearchCtxInto allocates %.1f objects/query at steady state, want 0", avg)
	}
}

// routeSteadyStateAllocs warms the scratch pool with q's route on each of an
// immutable database and a mutable one that has lived, and fails unless one
// more query under ctx with a reused Dst allocates nothing.
func routeSteadyStateAllocs(t *testing.T, ctx context.Context, q ansmet.Query) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ds := benchData()
	for name, db := range map[string]*ansmet.Database{"et": benchDB(), "mutable": benchMutatedDB()} {
		i := 0
		run := func() {
			q.Vector = ds.Queries[i%len(ds.Queries)]
			i++
			res, err := db.Do(ctx, &q)
			if err != nil {
				t.Fatal(err)
			}
			q.Dst = res.Neighbors
		}
		for w := 0; w < 4; w++ {
			run()
		}
		if avg := testing.AllocsPerRun(100, run); avg != 0 {
			t.Fatalf("%s: the %v route allocates %.1f objects/query at steady state, want 0", name, q.Route, avg)
		}
	}
}

// TestHostSteadyStateAllocs: the host engine lives on the pooled scratch,
// so a steady-state host query allocates nothing.
func TestHostSteadyStateAllocs(t *testing.T) {
	routeSteadyStateAllocs(t, context.Background(), ansmet.Query{K: 10, Ef: 64, Route: ansmet.RouteHost})
}

// TestNDPSteadyStateAllocs: the bit-plane beam, named (the default beam is
// the host one), allocates nothing either — BenchmarkSearchHost's ndp arm.
func TestNDPSteadyStateAllocs(t *testing.T) {
	routeSteadyStateAllocs(t, context.Background(), ansmet.Query{K: 10, Ef: 64, Route: ansmet.RouteNDP})
}

// TestAutoDeadlineSteadyStateAllocs: a query that leaves the route to the
// router under a live deadline — the decision (slack against the cost
// model), the in-flight tracking and the cost observation — allocates
// nothing.
func TestAutoDeadlineSteadyStateAllocs(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	routeSteadyStateAllocs(t, ctx, ansmet.Query{K: 10, Ef: 64, Route: ansmet.RouteAuto})
}

// TestExactSteadyStateAllocs: the exact scan keeps its k best in place on
// the caller's Dst. At the parent a Base design built an engine and regrew
// its result list on every exact query.
func TestExactSteadyStateAllocs(t *testing.T) {
	routeSteadyStateAllocs(t, context.Background(), ansmet.Query{K: 10, Route: ansmet.RouteExact})
}
