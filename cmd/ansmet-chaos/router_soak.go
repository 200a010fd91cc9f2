// Router soak: the deadline-aware query router under combined pressure —
// an injected NDP rank crash plus tight client deadlines — must degrade
// whole queries from the tiered path to the CPU-exact path without result
// instability or goroutine leaks:
//
//   - healthy + idle + no deadline: auto picks the tiered path and its
//     answers are byte-identical to the exact route (budget 1 is lossless);
//   - once the crash trips a rank breaker, auto diverts every query to the
//     exact path — under concurrency and deadline pressure alike — and the
//     completed answers stay byte-identical across repeats (degradation
//     must never wobble a result bit);
//   - expired or overrun deadlines surface as CancelError, never as
//     panics or silent truncation;
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
	"ansmet/internal/core"
	"ansmet/internal/dataset"
	"ansmet/internal/engine"
	"ansmet/internal/fault"
	"ansmet/internal/leakcheck"
)

func runRouterSoak(n int, seed uint64) error {
	p := dataset.ProfileByName("DEEP")
	ds := dataset.Generate(p, n, 8, 77)
	cfg := core.DefaultSystemConfig(core.NDPETOpt)
	cfg.Fault = &fault.Schedule{Seed: seed, Rules: []fault.Rule{
		{Kind: fault.RankCrash, Rank: 0, After: 40},
	}}
	// A huge ProbeAfter keeps the crashed rank fenced for the whole soak:
	// the router's divert-to-exact decision stays deterministic.
	cfg.Resilience = engine.ResilienceConfig{MaxRetries: 1, FailureThreshold: 4, ProbeAfter: 1 << 30}
	db, err := ansmet.New(ds.Vectors, ansmet.Options{
		Metric: p.Metric, Elem: p.Elem, EfConstruction: 60, Seed: 7, Advanced: &cfg,
	})
	if err != nil {
		return err
	}

	// Per-query exact references: every completed degraded answer must
	// equal these bit for bit.
	want := make([][]ansmet.Neighbor, len(ds.Queries))
	for qi, q := range ds.Queries {
		res, err := db.Do(context.Background(), &ansmet.Query{Vector: q, K: 10, Route: ansmet.RouteExact})
		if err != nil {
			return err
		}
		want[qi] = res.Neighbors
	}

	// Phase 0: healthy, idle, no deadline — auto must pick the tiered path
	// and reproduce the exact answers.
	ctx := context.Background()
	for qi, q := range ds.Queries {
		res, err := db.Do(ctx, &ansmet.Query{Vector: q, K: 10, Ef: 50})
		if err != nil || res.Route != ansmet.RouteTiered {
			return fmt.Errorf("healthy query %d: route=%v err=%v", qi, res.Route, err)
		}
		if err := identical(res.Neighbors, want[qi]); err != nil {
			return fmt.Errorf("healthy query %d (tiered): %w", qi, err)
		}
	}
	baseline := leakcheck.Baseline()
	fmt.Printf("    healthy: %d auto queries on the tiered path, byte-identical to exact\n", len(ds.Queries))

	// Phase 1: drive NDP beam searches until the scheduled rank crash trips
	// the breaker. The searches themselves must keep succeeding (retry +
	// per-comparison fallback absorb the crash).
	tripped := false
	for i := 0; i < 500 && !tripped; i++ {
		if _, err := db.SearchInto(ds.Queries[i%len(ds.Queries)], 10, 50, nil); err != nil {
			return fmt.Errorf("ndp query during crash phase: %v", err)
		}
		tripped = db.Stats().DegradedRanks > 0
	}
	if !tripped {
		return fmt.Errorf("rank crash never tripped a breaker — vacuous run: %+v", db.Stats())
	}
	fmt.Printf("    crash: breaker open, %d rank(s) degraded (trips=%d fallbacks=%d)\n",
		db.Stats().DegradedRanks, db.Stats().BreakerTrips, db.Stats().FallbackComparisons)

	// Phase 2: concurrent soak under deadline pressure. Every decision must
	// now divert to the exact path; completed answers must match the
	// references; deadline overruns may only surface as CancelError.
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
				nn, route := res.Neighbors, res.Route
				switch {
				case err == nil:
					if route != ansmet.RouteExact {
						fail(fmt.Errorf("degraded query routed %v, want exact", route))
						continue
					}
					if ierr := identical(nn, want[qi]); ierr != nil {
						fail(fmt.Errorf("degraded query %d: %w", qi, ierr))
						continue
					}
					completed.Add(1)
				default:
					var ce *ansmet.CancelError
					if !errors.As(err, &ce) {
						fail(fmt.Errorf("degraded query %d: non-cancel error %v", qi, err))
						continue
					}
					cancelled.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if completed.Load() == 0 {
		return fmt.Errorf("no degraded query ever completed (cancelled=%d)", cancelled.Load())
	}
	if cancelled.Load() == 0 {
		return fmt.Errorf("deadline pressure never cancelled anything — vacuous run")
	}
	rs := db.RouterStats()
	if rs.Diverted == 0 || rs.Exact == 0 {
		return fmt.Errorf("router never diverted to exact: %+v", rs)
	}
	fmt.Printf("    degraded soak: 320 queries, %d completed byte-identical on the exact path, %d cancelled cleanly (diverted=%d)\n",
		completed.Load(), cancelled.Load(), rs.Diverted)

	// Phase 3: serial stability re-check — repeats of one fixed query on
	// the degraded router must not wobble.
	for i := 0; i < 20; i++ {
		res, err := db.Do(ctx, &ansmet.Query{Vector: ds.Queries[0], K: 10, Ef: 50})
		if err != nil || res.Route != ansmet.RouteExact {
			return fmt.Errorf("stability repeat %d: route=%v err=%v", i, res.Route, err)
		}
		if err := identical(res.Neighbors, want[0]); err != nil {
			return fmt.Errorf("stability repeat %d: %w", i, err)
		}
	}
	fmt.Printf("    stability: 20 repeats identical on the degraded router\n")

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
