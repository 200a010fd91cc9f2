package ansmet_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ansmet"
	"ansmet/internal/leakcheck"
)

// routed runs one query through Do on the given route.
func routed(ctx context.Context, db *ansmet.Database, q []float32, k, ef int, route ansmet.Route) ([]ansmet.Neighbor, ansmet.Route, error) {
	res, err := db.Do(ctx, &ansmet.Query{Vector: q, K: k, Ef: ef, Route: route})
	return res.Neighbors, res.Route, err
}

// TestSearchRoutedAuto: without a deadline auto picks the quality route —
// the exact scan — on a healthy, idle database (the slack and load legs of
// the policy are pinned on the router itself, internal/engine); with an
// already-expired context it
// rejects up front like every Ctx entry point; an exact scan cut mid-way
// (once through the scan's test hook, then by short deadlines) never moves
// the exact cost estimate; a deadline of the exact scan's own cost
// estimate sends it to the host beam; and under concurrent mixed deadlines
// every completed answer is its route's, bit for bit.
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

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, _, err = routed(expired, db, ds.Queries[0], 10, 64, ansmet.RouteAuto)
	var ce *ansmet.CancelError
	if !errors.As(err, &ce) || ce.Partial {
		t.Fatalf("expired context: err=%v", err)
	}

	want := map[ansmet.Route][][]ansmet.Neighbor{}
	for _, route := range []ansmet.Route{ansmet.RouteExact, ansmet.RouteHost} {
		for _, q := range ds.Queries {
			nn, _, err := routed(context.Background(), db, q, 10, 64, route)
			if err != nil {
				t.Fatal(err)
			}
			want[route] = append(want[route], nn)
		}
	}
	// answer reports an answer of auto's that is not its route's reference.
	answer := func(qi int, res ansmet.Result) error {
		if ref := want[res.Route]; ref == nil || !slices.Equal(res.Neighbors, ref[qi]) {
			return fmt.Errorf("query %d on %v: %v, not that route's answer", qi, res.Route, res.Neighbors)
		}
		return nil
	}

	// A deadline of the exact scan's own cost estimate leaves less slack than
	// the router asks for. A query whose deadline passed before Do looked at
	// it is refused unrouted (RouteAuto): a descheduled goroutine, not a
	// routing decision.
	est := time.Duration(db.RouterStats().CostNs[ansmet.RouteExact.String()])
	if est == 0 {
		t.Fatalf("no exact cost estimate after exact queries: %+v", db.RouterStats())
	}
	// An exact scan cut mid-scan does not train the router: its time is the
	// deadline's, and folding it in would lower the exact scan's estimate
	// under the very pressure that cut it. One cut is certain: the scan's
	// test hook cancels the query's context at its first checkpoint, so the
	// scan stops there with a partial answer however fast it runs.
	// Deadlines of a fraction of est then try for more, which a fast scan
	// may finish within.
	hookCtx, hookCancel := context.WithCancel(context.Background())
	ansmet.SetScanTestHook(func(uint32) { hookCancel() })
	before := db.RouterStats().CostNs[ansmet.RouteExact.String()]
	_, err = db.Do(hookCtx, &ansmet.Query{Vector: ds.Queries[0], K: 10, Route: ansmet.RouteExact})
	ansmet.SetScanTestHook(nil)
	hookCancel()
	if !errors.As(err, &ce) || !ce.Partial {
		t.Fatalf("an exact scan cancelled at its first checkpoint: err=%v, want a partial CancelError", err)
	}
	if after := db.RouterStats().CostNs[ansmet.RouteExact.String()]; after != before {
		t.Fatalf("an exact scan cancelled at its first checkpoint moved the exact cost estimate %d → %d ns", before, after)
	}
	cut := 1
	for try := 0; try < 200 && cut < 3; try++ {
		before := db.RouterStats().CostNs[ansmet.RouteExact.String()]
		ctx, cancel := context.WithTimeout(context.Background(), est/time.Duration(2+try%4))
		_, err := db.Do(ctx, &ansmet.Query{Vector: ds.Queries[try%len(ds.Queries)], K: 10, Route: ansmet.RouteExact})
		cancel()
		if !errors.As(err, &ce) {
			continue // finished in time: a legitimate sample
		}
		if ce.Partial {
			cut++
		}
		if after := db.RouterStats().CostNs[ansmet.RouteExact.String()]; after != before {
			t.Fatalf("a cancelled exact scan (partial %v) moved the exact cost estimate %d → %d ns", ce.Partial, before, after)
		}
	}
	if cut == 0 {
		t.Fatalf("no exact scan was cut mid-scan under deadlines of a fraction of %v", est)
	}

	onHost := 0
	for qi, q := range ds.Queries {
		ctx, cancel := context.WithTimeout(context.Background(), est)
		res, err := db.Do(ctx, &ansmet.Query{Vector: q, K: 10, Ef: 64})
		cancel()
		switch {
		case err != nil && !errors.As(err, &ce):
			t.Fatalf("query %d under a %v deadline: %v", qi, est, err)
		case err != nil && res.Route == ansmet.RouteAuto:
			continue
		case res.Route != ansmet.RouteHost:
			t.Fatalf("query %d under a %v deadline: route=%v err=%v, want host", qi, est, res.Route, err)
		case err == nil:
			if err := answer(qi, res); err != nil {
				t.Fatal(err)
			}
		}
		onHost++
	}
	if onHost == 0 {
		t.Fatalf("every query under a %v deadline expired before routing", est)
	}

	// Concurrent queries under mixed deadlines: the route may move, a result
	// bit may not, a deadline surfaces only as a CancelError, and no
	// goroutine outlives the queries.
	base := leakcheck.Baseline()
	deadlines := []time.Duration{-time.Millisecond, 50 * time.Microsecond, time.Millisecond, 0}
	var completed, cancelled atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				qi := (w*40 + i) % len(ds.Queries)
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if d := deadlines[(w+i)%len(deadlines)]; d != 0 {
					ctx, cancel = context.WithTimeout(ctx, d)
				}
				res, err := db.Do(ctx, &ansmet.Query{Vector: ds.Queries[qi], K: 10, Ef: 64})
				cancel()
				var ce *ansmet.CancelError
				switch {
				case errors.As(err, &ce):
					cancelled.Add(1)
				case err != nil:
					t.Errorf("query %d: non-cancel error %v", qi, err)
					return
				default:
					if err := answer(qi, res); err != nil {
						t.Error(err)
						return
					}
					completed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if completed.Load() == 0 || cancelled.Load() == 0 {
		t.Fatalf("%d completed, %d cancelled: a vacuous run", completed.Load(), cancelled.Load())
	}
	leakcheck.SettleT(t, base)
}
