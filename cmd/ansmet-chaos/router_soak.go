// Router soak: the deadline-aware query router of a default database under
// deadline pressure and concurrency must move whole queries between its two
// routes without result instability or goroutine leaks:
//
//   - idle + no deadline: auto picks the exact scan, and its answers are
//     byte-identical to RouteExact's;
//   - a deadline below twice the exact scan's cost estimate: auto picks the
//     host beam;
//   - under concurrency and mixed deadlines, every completed answer is
//     byte-identical to the reference of the route that served it — the
//     choice of route may move, a result bit may not;
//   - expired or overrun deadlines surface as CancelError, never as panics
//     or silent truncation;
//   - when the soak ends the goroutine count settles back to baseline.
package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ansmet"
	"ansmet/internal/dataset"
	"ansmet/internal/leakcheck"
)

func runRouterSoak(n int) error {
	p := dataset.ProfileByName("DEEP")
	ds := dataset.Generate(p, n, 8, 77)
	db, err := ansmet.New(ds.Vectors, ansmet.Options{
		Metric: p.Metric, Elem: p.Elem, EfConstruction: 60, Seed: 7,
	})
	if err != nil {
		return err
	}

	// Per-query references of both routes: every completed answer must equal
	// the one of the route it ran on, bit for bit.
	ctx := context.Background()
	want := map[ansmet.Route][][]ansmet.Neighbor{}
	for _, route := range []ansmet.Route{ansmet.RouteExact, ansmet.RouteHost} {
		for _, q := range ds.Queries {
			res, err := db.Do(ctx, &ansmet.Query{Vector: q, K: 10, Ef: 50, Route: route})
			if err != nil {
				return err
			}
			want[route] = append(want[route], res.Neighbors)
		}
	}
	check := func(qi int, res ansmet.Result) error {
		ref, ok := want[res.Route]
		if !ok {
			return fmt.Errorf("query %d routed %v, want exact or host", qi, res.Route)
		}
		return identical(res.Neighbors, ref[qi])
	}

	// Phase 0: idle, no deadline — auto must pick the exact scan.
	for qi, q := range ds.Queries {
		res, err := db.Do(ctx, &ansmet.Query{Vector: q, K: 10, Ef: 50})
		if err != nil || res.Route != ansmet.RouteExact {
			return fmt.Errorf("idle query %d: route=%v err=%v", qi, res.Route, err)
		}
		if err := check(qi, res); err != nil {
			return fmt.Errorf("idle query %d: %w", qi, err)
		}
	}
	baseline := leakcheck.Baseline()
	fmt.Printf("    idle: %d auto queries on the exact scan, byte-identical to RouteExact\n", len(ds.Queries))

	// Phase 1: a deadline of the exact scan's own estimated cost leaves less
	// slack than the router's safety factor asks for, so auto must take the
	// beam. A query whose deadline passed before Do looked at it is refused
	// unrouted (RouteAuto) — a descheduled goroutine, not a routing decision.
	est := time.Duration(db.RouterStats().CostNs[ansmet.RouteExact.String()])
	if est == 0 {
		return fmt.Errorf("no exact cost estimate after the idle phase: %+v", db.RouterStats())
	}
	onHost := 0
	for qi, q := range ds.Queries {
		qctx, cancel := context.WithTimeout(ctx, est)
		res, err := db.Do(qctx, &ansmet.Query{Vector: q, K: 10, Ef: 50})
		cancel()
		var ce *ansmet.CancelError
		switch {
		case err != nil && !errors.As(err, &ce):
			return fmt.Errorf("pressured query %d: non-cancel error %v", qi, err)
		case res.Route == ansmet.RouteAuto && err != nil:
			continue
		case res.Route != ansmet.RouteHost:
			return fmt.Errorf("pressured query %d: route=%v err=%v, want host", qi, res.Route, err)
		case err == nil:
			if err := check(qi, res); err != nil {
				return fmt.Errorf("pressured query %d: %w", qi, err)
			}
		}
		onHost++
	}
	if onHost == 0 {
		return fmt.Errorf("every pressured query expired before routing — vacuous run")
	}
	fmt.Printf("    pressure: %d of %d auto queries under a %v deadline routed to the host beam\n", onHost, len(ds.Queries), est)

	// Phase 2: concurrent soak under mixed deadlines. Completed answers must
	// match their route's reference; deadline overruns may only surface as
	// CancelError.
	deadlines := []time.Duration{
		-time.Millisecond, // already expired at call time
		50 * time.Microsecond,
		time.Millisecond,
		time.Second,
		0, // no deadline
	}
	var completed, cancelled atomic.Int64
	var (
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				qi := (w*40 + i) % len(ds.Queries)
				qctx, cancel := ctx, context.CancelFunc(func() {})
				if d := deadlines[(w+i)%len(deadlines)]; d != 0 {
					qctx, cancel = context.WithDeadline(ctx, time.Now().Add(d))
				}
				res, err := db.Do(qctx, &ansmet.Query{Vector: ds.Queries[qi], K: 10, Ef: 50})
				cancel()
				if err != nil {
					var ce *ansmet.CancelError
					if !errors.As(err, &ce) {
						fail(fmt.Errorf("soak query %d: non-cancel error %v", qi, err))
						continue
					}
					cancelled.Add(1)
					continue
				}
				if cerr := check(qi, res); cerr != nil {
					fail(fmt.Errorf("soak query %d: %w", qi, cerr))
					continue
				}
				completed.Add(1)
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if completed.Load() == 0 {
		return fmt.Errorf("no soak query ever completed (cancelled=%d)", cancelled.Load())
	}
	if cancelled.Load() == 0 {
		return fmt.Errorf("deadline pressure never cancelled anything — vacuous run")
	}
	fmt.Printf("    soak: 320 queries, %d completed byte-identical to their route's reference, %d cancelled cleanly\n",
		completed.Load(), cancelled.Load())

	if err := leakcheck.Settle(baseline); err != nil {
		return err
	}
	fmt.Printf("    goroutines: %d (baseline %d) — no leak\n", runtime.NumGoroutine(), baseline)
	return nil
}

// identical demands bitwise result equality (IDs, order and distances).
func identical(got, want []ansmet.Neighbor) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("result %d: %+v != %+v", i, got[i], want[i])
		}
	}
	return nil
}
