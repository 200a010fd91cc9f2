package ansmet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ansmet/internal/core"
	"ansmet/internal/engine"
)

// This file is the whole query surface: one request value (Query), one
// answer (Result), and one execution core (Database.do) that every search
// entry point — Do, DoMany, the Search*/TieredSearch* wrappers below, and
// each shard of Cluster.Do — runs through. DESIGN.md, "Query
// plan and execution core", is the prose companion.

// Query is one search request. The zero value of every field but Vector and
// K selects a default, so the common query is Query{Vector: q, K: k}.
type Query struct {
	// Vector is the query; its length must match the indexed vectors' and
	// every component must be finite.
	Vector []float32
	// K is the number of neighbors wanted (must be positive).
	K int
	// Ef is the beam width of the beam routes, host and ndp (the paper's
	// efSearch); 0 means max(2K, 32). A non-zero Ef below K is rejected on
	// every route.
	Ef int
	// Filter, when non-nil, restricts results to ids it accepts (attribute +
	// vector hybrid search); traversal still crosses non-matching vertices
	// so the graph stays navigable, and on a mutable database the tombstone
	// filter applies in addition. Only the beam routes filter: RouteAuto
	// with a Filter resolves to the host beam, RouteTiered and RouteExact
	// reject one.
	Filter func(uint32) bool
	// Route forces an execution path; the zero value RouteAuto lets the
	// database's router pick from deadline slack and load — unless Budget
	// states the quality wanted (see there).
	Route Route
	// Budget is the tiered route's adaptive-cut budget in (0, 1]; 0 (or a
	// negative value) means 1, the provably exact cut. Smaller values trade
	// a recall guarantee of roughly this level for a smaller exact re-rank
	// pool. On RouteAuto a positive Budget is the caller stating the quality,
	// and the router is not asked: at 1 or above the exact scan runs (the
	// same answers as the tiered route at budget 1, bit for bit), below 1 the
	// tiered route at that budget.
	Budget float64
	// Dst, when non-nil, receives the results (appended into Dst[:0]); with
	// enough capacity every route then allocates nothing at steady state.
	Dst []Neighbor
}

// Result is the answer to one Query.
type Result struct {
	// Neighbors is the top-K in ascending (Dist, ID) order — or, next to a
	// *CancelError, the route's partial answer (see Database.Do).
	Neighbors []Neighbor
	// Route is the path that executed: never RouteAuto once a query ran.
	Route Route
	// Lines is the number of 64 B lines the tiered or exact route fetched.
	// The exact route reads whole rows, so its count is the honest full
	// fetch: live rows scanned × the plain-layout lines of one vector; the
	// early-termination saving the paper claims for exact kNN (§4.1) shows
	// on the tiered route at budget 1. 0 on the beam routes, which do not
	// report per-query traffic.
	Lines int
	// Tiered is the tiered route's work split. The exact route reports
	// itself as the degenerate tiered plan: the whole population is the
	// pool and every fetched line is a re-rank line.
	Tiered TieredStats
}

// beam returns the query's beam width: Ef, or engine.DefaultEf(K).
func (q *Query) beam() int {
	if q.Ef != 0 {
		return q.Ef
	}
	return engine.DefaultEf(q.K)
}

// errFilterRoute rejects a Filter on a route that cannot honor it.
var errFilterRoute = errors.New("ansmet: Filter needs a beam route (host or ndp)")

// Do executes one query. The steps, in order:
//
//  1. A context that has already expired is rejected before the index is
//     touched (*CancelError, Partial false).
//  2. The inputs are validated (ErrBadK, ErrBadEf, ErrBadQuery,
//     ErrDimension; see IsInvalidInput).
//  3. The route is resolved: a Filter pins a beam route (the host beam on
//     RouteAuto); RouteAuto with a positive Budget is the exact scan
//     (Budget >= 1) or the tiered route at that budget; otherwise RouteAuto
//     asks the router — the exact scan when its recent cost fits the
//     deadline slack, the host beam under pressure or load.
//  4. The route runs, and the router of this database observes it (route
//     counter, in-flight load, cost estimate) whichever entry point the
//     query came through.
//
// The defaults are the routes over the row slab with the typed SIMD
// kernels — on a host CPU the fastest correct engines, returning what the
// bit-plane path returns bit for bit.
//
// When ctx fires mid-flight the route stops at its next checkpoint and Do
// returns what it has with a *CancelError whose Partial field reports
// whether that is usable: the beam routes return the best results found so
// far (empty if the descent had not reached the base layer); the tiered
// route aborts empty during stage 1 (bounds alone are not answers) and
// returns the exact top-K over the pool prefix re-ranked so far during
// stage 2; the exact route returns the top-K of the prefix scanned so far —
// a usable approximate answer, NOT the exact one. A context that never
// fires costs a counter increment and an occasional non-blocking channel
// poll.
//
// A Query on the caller's stack does not escape, so with a reused Dst every
// route performs zero heap allocations at steady state.
func (db *Database) Do(ctx context.Context, q *Query) (Result, error) {
	s := db.getScratch()
	defer db.putScratch(s)
	return db.do(ctx, s, q)
}

// resolveRoute is step 3 of Do.
func (db *Database) resolveRoute(ctx context.Context, q *Query) (Route, error) {
	route := q.Route
	if q.Filter != nil {
		switch route {
		case RouteAuto:
			return RouteHost, nil
		case RouteNDP, RouteHost:
			return route, nil
		}
		return route, fmt.Errorf("%w (got %v)", errFilterRoute, route)
	}
	if route == RouteAuto {
		switch {
		case q.Budget >= 1:
			route = RouteExact
		case q.Budget > 0:
			route = RouteTiered
		default:
			route = db.router.Decide(slackOf(ctx))
		}
	}
	return route, nil
}

// do is the execution core: the only place a search is validated,
// quantized, dispatched, observed and mapped to the cancellation contract.
// s is the caller-held scratch (Do draws one per query, DoMany one per
// worker).
func (db *Database) do(ctx context.Context, s *searchScratch, q *Query) (Result, error) {
	res := Result{Route: q.Route}
	if ctx.Err() != nil {
		return res, cancelErr(ctx, false)
	}
	ef := q.beam()
	if err := db.validateQuery(q.Vector, q.K, ef); err != nil {
		return res, err
	}
	route, err := db.resolveRoute(ctx, q)
	if err != nil {
		return res, err
	}
	qq := quantizeInto(s.qq, q.Vector, db.opts.Elem)
	done := ctx.Done()
	cancelled := false

	db.router.Begin()
	defer db.router.End()
	start := time.Now()
	switch route {
	case RouteTiered:
		et := db.ndpEngine(s).(*core.ETEngine)
		budget := q.Budget
		if budget <= 0 || budget > 1 {
			budget = 1
		}
		res.Neighbors, res.Tiered = et.TieredKNNInto(done, qq, q.K, core.TieredOpts{Budget: budget}, q.Dst)
		res.Lines = res.Tiered.BoundLines + res.Tiered.RerankLines
		cancelled = res.Tiered.Cancelled
	case RouteExact:
		res.Neighbors, res.Lines, cancelled = core.ScanKNN(done, db.hostEngine(s), db.tomb, qq, q.K, q.Dst)
		res.Tiered = TieredStats{Pool: db.Len(), RerankLines: res.Lines, Cancelled: cancelled}
	default:
		// The beam routes are one traversal at one ef and one batch; only the
		// engine under it differs, so host and ndp return the same ids and the
		// same distance bits.
		var eng engine.Engine
		if route == RouteNDP {
			eng = db.ndpEngine(s)
		} else {
			route, eng = RouteHost, db.hostEngine(s)
		}
		// combineFilter adds the tombstone filter of a mutable database: it
		// keeps deleted ids out of the results while traversal still routes
		// through them.
		res.Neighbors, cancelled = db.index.SearchCancelInto(done, qq, q.K, ef,
			db.cfg.BeamBatch, db.combineFilter(q.Filter), eng, nil, q.Dst)
	}
	res.Route = route
	db.router.Record(route)
	db.router.Observe(route, time.Since(start))
	if cancelled {
		return res, cancelErr(ctx, len(res.Neighbors) > 0)
	}
	return res, nil
}

// hostEngine returns the scratch's host compare engine: full-precision SIMD
// distances over the database's row slab, in its element type. It runs under
// the host beam and the exact scan, is built on first use and pooled with
// the scratch. It pins the slab at every StartQuery, so a mutable database's
// appends are visible to it as they are to the ET engine (core/mutable.go).
func (db *Database) hostEngine(s *searchScratch) *engine.Exact {
	if s.host == nil {
		s.host = engine.NewExactOver(db.rows, db.opts.Metric)
	}
	return s.host
}

// combineFilter merges the caller's predicate with the tombstone filter of
// a mutable database. On an immutable database the predicate passes
// through untouched (no wrapper allocation).
func (db *Database) combineFilter(filter func(uint32) bool) func(uint32) bool {
	if db.liveFilter == nil {
		return filter
	}
	if filter == nil {
		return db.liveFilter
	}
	lf := db.liveFilter
	return func(id uint32) bool { return lf(id) && filter(id) }
}

// slackOf returns the context's remaining deadline budget, or
// engine.NoDeadline when it has none.
func slackOf(ctx context.Context) time.Duration {
	dl, ok := ctx.Deadline()
	if !ok {
		return engine.NoDeadline
	}
	d := time.Until(dl)
	if d < 0 {
		d = 0
	}
	return d
}

// doManyChunk is the number of queries a DoMany worker claims per atomic
// increment. Chunking amortizes the shared-counter contention while staying
// fine-grained enough to balance skewed query costs.
const doManyChunk = 16

// DoMany executes plan once per query vector across `workers` goroutines
// (workers <= 0 uses GOMAXPROCS) and returns the per-query neighbors in
// order, plus the route that ran. plan's Vector and Dst are ignored.
// RouteAuto is resolved once for the whole batch, from the slack at entry,
// so the batch is homogeneous; every query then runs through the same core
// as Do and is byte-identical to the serial Do on that route.
//
// Workers claim chunks of doManyChunk queries from a shared atomic counter
// and hold one scratch (quantize buffer, private distance engine, result
// buffer) each, so the only per-query allocation at steady state is the
// returned result slice itself.
//
// The first failing query stops the pool. An invalid one is returned as
// "query <i>: <err>" (the lowest index a worker reached) with no results.
// When ctx fires, workers stop claiming queries and the in-flight ones stop
// at their own checkpoints; per-query partials are dropped (they are not
// useful inside a batch), completed queries keep their slot, unstarted ones
// stay nil, and the *CancelError's Partial field reports whether any query
// completed. A panic inside one worker (a corrupted index, a
// hardware-model fault outside the resilient path) does not crash the
// process: the remaining queries are cancelled and the panic is returned as
// an error.
func (db *Database) DoMany(ctx context.Context, queries [][]float32, plan *Query, workers int) ([][]Neighbor, Route, error) {
	if ctx.Err() != nil {
		return nil, plan.Route, cancelErr(ctx, false)
	}
	base := *plan
	route, err := db.resolveRoute(ctx, &base)
	if err != nil {
		return nil, plan.Route, err
	}
	base.Route = route
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, len(queries)), 1)
	out := make([][]Neighbor, len(queries))
	nchunks := (len(queries) + doManyChunk - 1) / doManyChunk
	var (
		wg        sync.WaitGroup
		next      atomic.Int64
		stop      atomic.Bool
		cancelled atomic.Bool
		failMu    sync.Mutex
		failAt    = len(queries) // lowest failing query index seen
		failErr   error
	)
	fail := func(i int, err error) {
		failMu.Lock()
		if i < failAt {
			failAt, failErr = i, err
		}
		failMu.Unlock()
		stop.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					fail(-1, fmt.Errorf("ansmet: search worker panicked: %v", p))
				}
			}()
			s := db.getScratch()
			defer db.putScratch(s)
			q := base
			for !stop.Load() {
				c := int(next.Add(1)) - 1
				if c >= nchunks {
					return
				}
				lo := c * doManyChunk
				for i := lo; i < min(lo+doManyChunk, len(queries)) && !stop.Load(); i++ {
					q.Vector, q.Dst = queries[i], s.buf
					res, err := db.do(ctx, s, &q)
					if err != nil {
						var ce *CancelError
						if errors.As(err, &ce) {
							cancelled.Store(true)
							stop.Store(true)
						} else {
							fail(i, fmt.Errorf("query %d: %w", i, err))
						}
						return
					}
					s.buf = res.Neighbors
					out[i] = make([]Neighbor, len(s.buf))
					copy(out[i], s.buf)
				}
			}
		}()
	}
	wg.Wait()
	if failErr != nil {
		return nil, route, failErr
	}
	if cancelled.Load() {
		completed := slices.ContainsFunc(out, func(r []Neighbor) bool { return r != nil })
		return out, route, cancelErr(ctx, completed)
	}
	return out, route, nil
}

// The wrappers below are the historical entry points that survive, each a
// Query literal, one Do call and the unpacking of its Result. They all
// force their route — the four Search* ones the host beam — so use Do for
// RouteAuto, filters and the rest.

// Search returns the k approximate nearest neighbors of q on the host beam
// with the default beam width, max(2k, 32).
func (db *Database) Search(q []float32, k int) ([]Neighbor, error) {
	res, err := db.Do(context.Background(), &Query{Vector: q, K: k, Route: RouteHost})
	return res.Neighbors, err
}

// SearchInto is Search with an explicit beam width (the paper's efSearch)
// appending results into dst[:0] instead of allocating a fresh slice. With a
// reused dst of sufficient capacity the whole search is allocation-free at
// steady state: the quantize buffer, the distance engine, and the traversal
// scratch all come from pools.
func (db *Database) SearchInto(q []float32, k, ef int, dst []Neighbor) ([]Neighbor, error) {
	res, err := db.Do(context.Background(), &Query{Vector: q, K: k, Ef: ef, Route: RouteHost, Dst: dst})
	return res.Neighbors, err
}

// SearchEfCtx is SearchInto with cooperative cancellation and a fresh
// result slice; see Do for the cancellation contract.
func (db *Database) SearchEfCtx(ctx context.Context, q []float32, k, ef int) ([]Neighbor, error) {
	res, err := db.Do(ctx, &Query{Vector: q, K: k, Ef: ef, Route: RouteHost})
	return res.Neighbors, err
}

// SearchCtxInto is SearchEfCtx appending results into dst[:0]; with a
// reused dst the un-cancelled steady state performs zero heap allocations
// (gated by TestSearchCtxSteadyStateAllocs).
func (db *Database) SearchCtxInto(ctx context.Context, q []float32, k, ef int, dst []Neighbor) ([]Neighbor, error) {
	res, err := db.Do(ctx, &Query{Vector: q, K: k, Ef: ef, Route: RouteHost, Dst: dst})
	return res.Neighbors, err
}

// TieredSearchInto returns the k nearest neighbors via the two-stage
// bound-first/exact-rerank pipeline, with an explicit budget in (0, 1] (0
// means 1, the provably exact cut) appending results into dst[:0]. Stage 1
// orders the whole population
// by cheap partial-bit lower bounds without ever fully fetching a vector;
// stage 2 re-ranks candidates exactly in ascending-bound order until the
// adaptive cut proves (budget 1) or deems (budget < 1) the rest irrelevant.
// At budget 1 the results are identical to the exact route's, at a fraction
// of its line traffic. With a reused dst the steady state allocates nothing
// (gated by TestTieredSteadyStateAllocs).
func (db *Database) TieredSearchInto(q []float32, k int, budget float64, dst []Neighbor) ([]Neighbor, TieredStats, error) {
	res, err := db.Do(context.Background(), &Query{Vector: q, K: k, Route: RouteTiered, Budget: budget, Dst: dst})
	return res.Neighbors, res.Tiered, err
}

// TieredSearchCtxInto is TieredSearchInto with cooperative cancellation;
// see Do for the tiered route's partial-result contract.
func (db *Database) TieredSearchCtxInto(ctx context.Context, q []float32, k int, budget float64, dst []Neighbor) ([]Neighbor, TieredStats, error) {
	res, err := db.Do(ctx, &Query{Vector: q, K: k, Route: RouteTiered, Budget: budget, Dst: dst})
	return res.Neighbors, res.Tiered, err
}
