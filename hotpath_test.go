// Hot-path allocation gates: the pooled search pipeline must not allocate
// at steady state. These run as ordinary tests so a regression fails the
// build rather than just shifting a benchmark number.
package ansmet_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"ansmet"
	"ansmet/internal/core"
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
// more query under ctx allocates nothing — with the previous answer reused
// as Dst, and with a Dst of capacity K at a beam width of 128 (the answer
// must land in it).
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
		capK := q
		if capK.Ef != 0 {
			capK.Ef = 128
		}
		buf := make([]ansmet.Neighbor, 0, q.K)
		runK := func() {
			capK.Vector, capK.Dst = ds.Queries[i%len(ds.Queries)], buf
			i++
			res, err := db.Do(ctx, &capK)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Neighbors) != q.K || &res.Neighbors[0] != &buf[:1][0] {
				t.Fatalf("%s: the %v route answered %d results outside a Dst of capacity K", name, q.Route, len(res.Neighbors))
			}
		}
		runK()
		if avg := testing.AllocsPerRun(100, runK); avg != 0 {
			t.Fatalf("%s: the %v route allocates %.1f objects/query into a Dst of capacity K at ef 128, want 0", name, q.Route, avg)
		}
	}
}

// TestHostSteadyStateAllocs: the host engine lives on the pooled scratch,
// so a steady-state host query allocates nothing.
func TestHostSteadyStateAllocs(t *testing.T) {
	routeSteadyStateAllocs(t, context.Background(), ansmet.Query{K: 10, Ef: 64, Route: ansmet.RouteHost})
}

// TestNDPSteadyStateAllocs: the bit-plane beam over the NDP model built on
// each database — BenchmarkSearchHost's ndp arm — allocates nothing either,
// on one worker engine with a reused quantize buffer: with the previous
// answer reused as the result slice, and into one of capacity K at a beam
// width of 128.
func TestNDPSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ds := benchData()
	for name, db := range map[string]*ansmet.Database{"et": benchDB(), "mutable": benchMutatedDB()} {
		sys, err := db.NewSystem(core.DefaultSystemConfig(core.NDPETOpt))
		if err != nil {
			t.Fatal(err)
		}
		eng, qq := sys.NewWorkerEngine(), make([]float32, sys.Dim)
		i := 0
		beam := func(ef int, dst []ansmet.Neighbor) []ansmet.Neighbor {
			for d, x := range ds.Queries[i%len(ds.Queries)] {
				qq[d] = sys.Elem.Quantize(x)
			}
			i++
			return sys.Index.SearchFilteredInto(qq, 10, ef, sys.Cfg.BeamBatch, sys.Live(), eng, nil, dst)
		}
		var dst []ansmet.Neighbor
		run := func() { dst = beam(64, dst) }
		for w := 0; w < 4; w++ {
			run()
		}
		if avg := testing.AllocsPerRun(100, run); avg != 0 {
			t.Fatalf("%s: the ndp beam allocates %.1f objects/query at steady state, want 0", name, avg)
		}
		buf := make([]ansmet.Neighbor, 0, 10)
		runK := func() {
			if nn := beam(128, buf); len(nn) != 10 || &nn[0] != &buf[:1][0] {
				t.Fatalf("%s: the ndp beam answered %d results outside a Dst of capacity K", name, len(nn))
			}
		}
		runK()
		if avg := testing.AllocsPerRun(100, runK); avg != 0 {
			t.Fatalf("%s: the ndp beam allocates %.1f objects/query into a Dst of capacity K at ef 128, want 0", name, avg)
		}
	}
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

// TestServedQueriesKeepOneCopy: a database serves every route from its one
// row slab. Every route, filtered and not, and DoMany on SIFT at n = 20 000
// and GIST at n = 3 000 leave the live heap at most 5 % of the row bytes
// larger than they found it: no query builds a second copy of the rows.
func TestServedQueriesKeepOneCopy(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting under the race detector is not the build's")
	}
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	even := func(id uint32) bool { return id%2 == 0 }
	ctx := context.Background()
	for _, w := range []struct {
		name string
		w    func() benchWorkload
	}{{"sift-20k", func() benchWorkload { return benchWorkload(benchSift20k()) }}, {"gist-3k", benchGist3k}} {
		t.Run(w.name, func(t *testing.T) {
			ds, db := w.w().ds, w.w().db
			rowBytes := uint64(db.Len() * ds.Profile.Dim * ds.Profile.Elem.Bytes())
			before := live()
			for _, route := range []ansmet.Route{ansmet.RouteAuto, ansmet.RouteHost, ansmet.RouteExact} {
				for _, f := range []func(uint32) bool{nil, even} {
					if f != nil && route == ansmet.RouteExact {
						continue // the exact scan refuses a Filter
					}
					for _, q := range ds.Queries[:4] {
						if _, err := db.Do(ctx, &ansmet.Query{Vector: q, K: 10, Route: route, Filter: f}); err != nil {
							t.Fatalf("%v filter=%v: %v", route, f != nil, err)
						}
					}
				}
				if _, _, err := db.DoMany(ctx, ds.Queries[:8], &ansmet.Query{K: 10, Route: route}, 2); err != nil {
					t.Fatalf("DoMany %v: %v", route, err)
				}
			}
			after := live()
			grown := int64(after) - int64(before)
			t.Logf("live heap %d → %d bytes (%+d) over %d row bytes", before, after, grown, rowBytes)
			if grown > int64(rowBytes/20) {
				t.Fatalf("served queries grew the live heap by %d bytes, %.0f%% of the %d row bytes (bound 5%%)", grown, 100*float64(grown)/float64(rowBytes), rowBytes)
			}
		})
	}
}
