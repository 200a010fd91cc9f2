package ansmet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ansmet/internal/engine"
	"ansmet/internal/hnsw"
	"ansmet/internal/rows"
)

// This file is the whole query surface: one request value (Query), one
// answer (Result), and one execution core (Database.do) that every search
// entry point — Do, DoMany, the Search* wrappers below (and compat.go's), and
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
	// Ef is the beam width of the host beam (the paper's efSearch); 0 means
	// max(2K, 32). A non-zero Ef below K is rejected on every route.
	Ef int
	// Filter, when non-nil, restricts results to ids it accepts (attribute +
	// vector hybrid search); traversal still crosses non-matching vertices
	// so the graph stays navigable, and on a mutable database the tombstone
	// filter applies in addition. Only the host beam filters: RouteAuto
	// with a Filter resolves to it, RouteExact rejects one.
	Filter func(uint32) bool
	// Route forces an execution path; the zero value RouteAuto lets the
	// database's router pick from deadline slack and load.
	Route Route
	// Dst, when non-nil, receives the results (appended into Dst[:0]); with
	// capacity K, whatever the beam width, every route then allocates
	// nothing at steady state.
	Dst []Neighbor
}

// Result is the answer to one Query.
type Result struct {
	// Neighbors is the top-K in ascending (Dist, ID) order — or, next to a
	// *CancelError, the route's partial answer (see Database.Do).
	Neighbors []Neighbor
	// Route is the path that executed: never RouteAuto once a query ran.
	Route Route
	// Lines is the number of 64 B lines the exact route fetched. It reads
	// whole rows, so its count is the honest full fetch: live rows scanned ×
	// the plain-layout lines of one vector; the early-termination saving the
	// paper claims for exact kNN (§4.1) shows on the model's tiered route
	// (core.ETEngine.TieredKNNInto) at budget 1. 0 on the host beam, which
	// does not report per-query traffic.
	Lines int
}

// beam returns the query's beam width: Ef, or engine.DefaultEf(K).
func (q *Query) beam() int {
	if q.Ef != 0 {
		return q.Ef
	}
	return engine.DefaultEf(q.K)
}

// errFilterRoute rejects a Filter on a route that cannot honor it.
var errFilterRoute = errors.New("ansmet: Filter needs the host beam")

// Do executes one query. The steps, in order:
//
//  1. A context that has already expired is rejected before the index is
//     touched (*CancelError, Partial false).
//  2. The inputs are validated (ErrBadK, ErrBadEf, ErrBadQuery,
//     ErrDimension; see IsInvalidInput).
//  3. The route is resolved: a Filter pins the host beam (RouteExact
//     rejects it); otherwise RouteAuto asks the router — the exact scan
//     when its recent cost fits the deadline slack, the host beam under
//     pressure or load.
//  4. The route runs, and the router of this database observes it (route
//     counter, in-flight load, cost estimate) whichever entry point the
//     query came through.
//
// Both routes run over the row slab with the typed SIMD kernels — on a host
// CPU the fastest correct engines, returning what the NDP model's bit-plane
// engines return bit for bit (see NewSystem).
//
// When ctx fires mid-flight the route stops at its next checkpoint and Do
// returns what it has with a *CancelError whose Partial field reports
// whether that is usable: the host beam returns the best results found so
// far (empty if the descent had not reached the base layer); the exact
// route returns the top-K of the prefix scanned so far — a usable
// approximate answer, NOT the exact one. A context that never fires costs a
// counter increment and an occasional non-blocking channel poll.
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
	switch {
	case q.Filter != nil && q.Route == RouteExact:
		return q.Route, fmt.Errorf("%w (got %v)", errFilterRoute, q.Route)
	case q.Filter != nil:
		return RouteHost, nil
	case q.Route == RouteAuto:
		return db.router.Decide(slackOf(ctx)), nil
	}
	return q.Route, nil
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
	if route == RouteExact {
		res.Neighbors, res.Lines, cancelled = scanKNN(done, db.hostEngine(s), db.tomb, qq, q.K, q.Dst)
	} else {
		// The host beam is the model's traversal at the model's batch, so it
		// returns the ndp beam's ids and distance bits. combineFilter adds the
		// tombstone filter of a mutable database: it keeps deleted ids out of
		// the results while traversal still routes through them.
		route = RouteHost
		res.Neighbors, cancelled = db.index.SearchCancelInto(done, qq, q.K, ef,
			engine.BeamBatch, db.combineFilter(q.Filter), db.hostEngine(s), nil, q.Dst)
	}
	res.Route = route
	db.router.Record(route)
	if cancelled {
		// A cut query's time is its deadline's, not the route's cost: folding
		// it in would make the route look cheaper under the very pressure
		// that cut it.
		return res, cancelErr(ctx, len(res.Neighbors) > 0)
	}
	db.router.Observe(route, time.Since(start))
	return res, nil
}

// scanCancelStride is the exact scan's cooperative-cancellation checkpoint
// stride: done is polled once every scanCancelStride ids, bounding the
// post-cancel overrun while keeping the steady-state cost to a counter test.
const scanCancelStride = 256

// scanRun is how many ids the exact scan takes per kernel call: a divisor of
// scanCancelStride, so every checkpoint falls on a run's first id, and of
// rows.ChunkRows, so a run never straddles a slab chunk. It is also the
// width of a tombstone word, so a run's marks are one load.
const scanRun = 64

// scanRuns pools the exact scan's distance buffer: a RunDistances call
// through the kernel's func value would move a buffer on the scan's stack
// to the heap.
var scanRuns = sync.Pool{New: func() any { return new([scanRun]float64) }}

// scanTestHook, when non-nil, runs at every cancellation checkpoint of a
// done-instrumented exact scan; tests use it to fire done at a precise id.
// Only consulted when done != nil, so the uncancellable scan never pays for
// it. scanScreenHook, when non-nil, is told of every screened run how many
// of its rows are live and how many of those survived the screen; tests and
// benchmarks count with it, and the scan checks it once per screened run.
var (
	scanTestHook   func(id uint32)
	scanScreenHook func(live, survivors int)
)

// scanKNN is the exact route: the k nearest of every live row of ex's slab
// to q, in ascending (Dist, ID) order, appended into dst[:0] — with a reused
// dst of capacity k it allocates nothing. tomb, when non-nil, is the
// deletion bitmap; linesFetched is the full fetch of every live row scanned.
//
// The ids go in aligned runs of scanRun, the k best kept in a max-heap built
// in place on dst. While the heap fills, each run's distances come in one
// RunDistances call, tombstoned rows included, and the heap pass skips the
// tombstoned ids. Once it is full, on rows with a screen (Exact.StartScreen),
// each run gives its survivor bits instead (RunSurvivors, against the
// run-start top) and each live survivor its distance, in id order against
// the live top: the screen clears only rows proven past the run-start top,
// and the top only falls, so a cleared row is one the heap would not have
// admitted. The ids come in ascending order, so every id the heap holds is
// smaller than the one at hand, and Less against the top is a plain
// distance compare: at equal distance the smaller id stays. The answer is
// the model's ETEngine.ExactKNN's bit for bit (TestScanKNNMatchesExactKNN,
// TestScanScreenMatchesExactKNN).
//
// done is a cooperative-cancellation channel; nil disables every check. It
// is polled before the first row and at every id that is a multiple of
// scanCancelStride once the heap is full. When done fires, the scan stops
// there and returns the best neighbors over the prefix scanned so far with
// cancelled=true — a usable approximate answer, NOT the exact one.
func scanKNN(done <-chan struct{}, ex *engine.Exact, tomb *rows.TombSet, q []float32, k int, dst []hnsw.Neighbor) (nn []hnsw.Neighbor, linesFetched int, cancelled bool) {
	if done != nil {
		select {
		case <-done:
			return dst[:0], 0, true
		default:
		}
	}
	ex.StartQuery(q)
	n := uint32(ex.Len())
	if want := min(k, int(n)); cap(dst) < want {
		dst = make([]hnsw.Neighbor, 0, want)
	}
	heap := hnsw.Heap{Max: true}
	heap.Init(dst[:0])
	buf := scanRuns.Get().(*[scanRun]float64)
	defer scanRuns.Put(buf)
	screened := k > 0 && ex.StartScreen()
	top := math.Inf(-1) // the heap's top distance once it is full; nothing is below -Inf
	for start := uint32(0); start < n; start += scanRun {
		if done != nil && start%scanCancelStride == 0 && heap.Len() >= k {
			if scanTestHook != nil {
				scanTestHook(start)
			}
			select {
			case <-done:
				cancelled = true
			default:
			}
			if cancelled {
				break
			}
		}
		end := min(start+scanRun, n)
		var dead uint64
		if tomb != nil {
			dead = tomb.Word(int(start/scanRun)) & (1<<(end-start) - 1)
		}
		live := int(end-start) - bits.OnesCount64(dead)
		linesFetched += live * ex.FullLines
		if screened && heap.Len() >= k {
			surv := ex.RunSurvivors(start, int(end-start), top) &^ dead
			if scanScreenHook != nil {
				scanScreenHook(live, bits.OnesCount64(surv))
			}
			for ; surv != 0; surv &= surv - 1 {
				id := start + uint32(bits.TrailingZeros64(surv))
				if d := ex.Distance(id); d < top {
					heap.ReplaceTop(hnsw.Neighbor{ID: id, Dist: d})
					top = heap.Top().Dist
				}
			}
			continue
		}
		dist := buf[:end-start]
		ex.RunDistances(start, dist)
		for i, d := range dist {
			if dead>>i&1 != 0 {
				continue
			}
			if heap.Len() < k {
				heap.Push(hnsw.Neighbor{ID: start + uint32(i), Dist: d})
				if heap.Len() == k {
					top = heap.Top().Dist
				}
			} else if d < top {
				heap.ReplaceTop(hnsw.Neighbor{ID: start + uint32(i), Dist: d})
				top = heap.Top().Dist
			}
		}
	}
	return heap.Sorted(dst), linesFetched, cancelled
}

// hostEngine returns the scratch's host compare engine: full-precision SIMD
// distances over the database's row slab, in its element type. It runs under
// the host beam and the exact scan, is built on first use and pooled with
// the scratch. It pins the slab at every StartQuery, so a mutable database's
// appends are visible to it.
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
// completed. A panic inside one worker (a corrupted index, say) does not
// crash the process: the remaining queries are cancelled and the panic is
// returned as an error ("ansmet: search worker panicked: ..."), the
// batch's one error.
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
// force the host beam, so use Do for RouteAuto, filters and the rest.

// SearchInto returns the k approximate nearest neighbors of q on the host
// beam with an explicit beam width (the paper's efSearch), appending
// results into dst[:0] instead of allocating a fresh slice. With a
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
