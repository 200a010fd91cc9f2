package ansmet

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"ansmet/internal/dataset"
)

// doTwin is one TestDoEquivalence configuration built twice from the same
// inputs: a wrapper runs on a, the Do it wraps on b. An adaptive database's
// tuner moves with every tiered query it observes, so comparing two calls
// on ONE database would compare two calibrations; twins fed the same query
// sequence stay in lockstep.
type doTwin struct {
	name    string
	a, b    *Database
	queries [][]float32
	deleted map[uint32]bool
	// autoRoute is what RouteAuto resolves to on a healthy idle database
	// whose deadline (if any) is an hour away — its quality route — and
	// beam what the Search* wrappers and a filtered RouteAuto query run:
	// exact and host, but tiered and ndp on the adaptive twin.
	autoRoute, beam Route
}

func buildDoTwins(t *testing.T) []doTwin {
	t.Helper()
	sift := dataset.ProfileByName("SIFT")
	sds := dataset.Generate(sift, 400, 5, 31)
	glove := dataset.ProfileByName("GloVe")
	gds := dataset.Generate(glove, 500, 5, 45)
	siftOpts := Options{Metric: sift.Metric, Elem: sift.Elem, EfConstruction: 60, Seed: 7}
	baseOpts := siftOpts
	baseOpts.Design = UseDesign(CPUBase)
	mutOpts := siftOpts
	mutOpts.Mutable, mutOpts.RepairEvery = true, 4
	deletes := []uint32{1, 5, 9, 20, 33, 399} // one repair batch at 4, two left pending
	deleted := map[uint32]bool{}
	for _, id := range deletes {
		deleted[id] = true
	}

	build := func(vectors [][]float32, opts Options, mutate bool) *Database {
		db, err := New(vectors, opts)
		if err != nil {
			t.Fatal(err)
		}
		if mutate {
			for _, id := range deletes {
				if err := db.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := db.Add(sds.Queries[0]); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	twin := func(name string, ds *dataset.Dataset, opts Options, mutate bool, auto Route) doTwin {
		tw := doTwin{name: name, queries: ds.Queries, autoRoute: auto, beam: RouteHost,
			a: build(ds.Vectors, opts, mutate), b: build(ds.Vectors, opts, mutate)}
		if auto == RouteTiered {
			tw.beam = RouteNDP
		}
		if mutate {
			tw.deleted = deleted
		}
		if tw.a.beam != tw.beam {
			t.Fatalf("%s twin: default beam %v, want %v", name, tw.a.beam, tw.beam)
		}
		return tw
	}
	twins := []doTwin{
		twin("et", sds, siftOpts, false, RouteExact),
		twin("base", sds, baseOpts, false, RouteExact),
		twin("mutable", sds, mutOpts, true, RouteExact),
		twin("adaptive", gds, Options{Metric: glove.Metric, Elem: glove.Elem, EfConstruction: 60, RecallTarget: 0.9}, false, RouteTiered),
	}
	if tw := twins[2]; tw.a.Tombstones() != len(deletes) || tw.a.Stats().PendingRepair == 0 {
		t.Fatalf("mutable twin: %d tombstones, %d pending repair", tw.a.Tombstones(), tw.a.Stats().PendingRepair)
	}
	if !twins[3].a.adaptive() {
		t.Fatal("adaptive twin did not enable the precision machinery")
	}
	return twins
}

// lateCancelCtx is a context that passes Do's expired-context check and
// fires before the route's first checkpoint: the deterministic mid-flight
// cancellation (a timer racing the query would land on a different
// checkpoint every run, and two runs could not be compared).
type lateCancelCtx struct {
	context.Context
	errCalls int
}

var closedChan = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

func (c *lateCancelCtx) Done() <-chan struct{} { return closedChan }

func (c *lateCancelCtx) Err() error {
	c.errCalls++
	if c.errCalls == 1 {
		return nil
	}
	return context.Canceled
}

// doCtxKinds are the context axis of the table. Each call builds a fresh
// context (lateCancelCtx counts its Err calls).
var doCtxKinds = []struct {
	name string
	make func() (context.Context, context.CancelFunc)
	// wantErr is the ansmet sentinel the query must fail with (nil: it must
	// succeed) and ctxErr the context-package sentinel the same error must
	// also match.
	wantErr, ctxErr error
}{
	{"background", func() (context.Context, context.CancelFunc) { return context.Background(), func() {} }, nil, nil},
	{"live", func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), time.Hour)
	}, nil, nil},
	{"expired", func() (context.Context, context.CancelFunc) {
		return context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	}, ErrDeadlineExceeded, context.DeadlineExceeded},
	{"mid-flight", func() (context.Context, context.CancelFunc) {
		return &lateCancelCtx{Context: context.Background()}, func() {}
	}, ErrCanceled, context.Canceled},
}

// wrapperFor returns the surviving wrapper whose signature covers the cell
// (nil when none does: no wrapper takes a Filter, RouteAuto, the beam that
// is not the database's default, or the exact route), adapted
// to Do's return shape.
func wrapperFor(db *Database, q *Query, background bool) func(context.Context) (Result, error) {
	if q.Filter != nil {
		return nil
	}
	switch q.Route {
	case db.beam:
		switch {
		case background && q.Ef == 0 && q.Dst == nil:
			return func(context.Context) (Result, error) {
				nn, err := db.Search(q.Vector, q.K)
				return Result{Neighbors: nn}, err
			}
		case background && q.Ef != 0:
			return func(context.Context) (Result, error) {
				nn, err := db.SearchInto(q.Vector, q.K, q.Ef, q.Dst)
				return Result{Neighbors: nn}, err
			}
		case q.Ef != 0 && q.Dst == nil:
			return func(ctx context.Context) (Result, error) {
				nn, err := db.SearchEfCtx(ctx, q.Vector, q.K, q.Ef)
				return Result{Neighbors: nn}, err
			}
		case q.Ef != 0:
			return func(ctx context.Context) (Result, error) {
				nn, err := db.SearchCtxInto(ctx, q.Vector, q.K, q.Ef, q.Dst)
				return Result{Neighbors: nn}, err
			}
		}
	case RouteTiered:
		if background {
			return func(context.Context) (Result, error) {
				nn, st, err := db.TieredSearchInto(q.Vector, q.K, q.Budget, q.Dst)
				return Result{Neighbors: nn, Tiered: st}, err
			}
		}
		return func(ctx context.Context) (Result, error) {
			nn, st, err := db.TieredSearchCtxInto(ctx, q.Vector, q.K, q.Budget, q.Dst)
			return Result{Neighbors: nn, Tiered: st}, err
		}
	}
	return nil
}

// sameError reports whether two query errors are the same outcome: both
// nil, or the same *CancelError value, or errors with the same text.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	var ca, cb *CancelError
	if errors.As(a, &ca) != errors.As(b, &cb) {
		return false
	}
	if ca != nil {
		return *ca == *cb
	}
	return a.Error() == b.Error()
}

// TestDoEquivalence drives every path × mode through the one execution
// core: {ET design, Base design, mutable with tombstones, adaptive
// RecallTarget} × {ndp, host, tiered, exact, auto} × {background, live, expired,
// cancelled mid-flight} × {nil, reused Dst} × {nil, non-nil Filter}. Each
// cell checks Do's own contract (route reported, cancellation mapping,
// filter and tombstones honored, Dst reused), that a context which never
// fires changes no result bit, and that every surviving wrapper is
// byte-identical to the Do call it wraps. The sub-tests after the table pin
// DoMany ≡ serial Do and Cluster.Do ≡ unsharded Do per route.
func TestDoEquivalence(t *testing.T) {
	twins := buildDoTwins(t)
	const k = 10
	even := func(id uint32) bool { return id%2 == 0 }
	filters := []struct {
		name string
		f    func(uint32) bool
	}{{"nofilter", nil}, {"even", even}}

	for _, tw := range twins {
		for _, route := range []Route{RouteNDP, RouteHost, RouteTiered, RouteExact, RouteAuto} {
			for _, fl := range filters {
				for _, reuse := range []bool{false, true} {
					// ref holds the background answers every never-firing
					// context must reproduce.
					ref := make([]Result, len(tw.queries))
					for _, ck := range doCtxKinds {
						name := fmt.Sprintf("%s/%v/%s/%s/reuse=%v", tw.name, route, fl.name, ck.name, reuse)
						for qi, vec := range tw.queries {
							q := Query{Vector: vec, K: k, Route: route, Filter: fl.f}
							if (route == RouteNDP || route == RouteHost) && qi%2 == 1 {
								q.Ef = 48 // odd queries exercise the explicit-beam wrappers
							}
							var dstA, dstB []Neighbor
							if reuse {
								dstA, dstB = make([]Neighbor, 3, 64), make([]Neighbor, 3, 64) // the beam appends ef entries before truncating to k
							}
							q.Dst = dstB
							ctx, cancel := ck.make()
							got, err := tw.b.Do(ctx, &q)
							cancel()

							wantRoute := route
							if route == RouteAuto {
								wantRoute = tw.autoRoute
							}
							if fl.f != nil && route == RouteAuto {
								wantRoute = tw.beam
							}
							if wantRoute == RouteTiered && tw.name == "base" {
								wantRoute = RouteExact
							}
							filterRejected := fl.f != nil && (route == RouteTiered || route == RouteExact)
							switch {
							case ck.name == "expired":
								// Rejected before anything else looks at the query.
								var ce *CancelError
								if !errors.As(err, &ce) || ce.Partial || got.Neighbors != nil ||
									!errors.Is(err, ck.wantErr) || !errors.Is(err, ck.ctxErr) {
									t.Fatalf("%s q%d: err=%v neighbors=%v, want an aborted %v", name, qi, err, got.Neighbors, ck.wantErr)
								}
							case filterRejected:
								if !errors.Is(err, errFilterRoute) || !IsInvalidInput(err) || got.Neighbors != nil {
									t.Fatalf("%s q%d: err=%v, want errFilterRoute classified as invalid input", name, qi, err)
								}
							case ck.wantErr != nil:
								// Fired before the first checkpoint: every route's
								// documented partial at that point is empty.
								var ce *CancelError
								if !errors.As(err, &ce) || !errors.Is(err, ck.wantErr) || !errors.Is(err, ck.ctxErr) {
									t.Fatalf("%s q%d: err=%v, want a *CancelError matching %v and %v", name, qi, err, ck.wantErr, ck.ctxErr)
								}
								if ce.Partial != (len(got.Neighbors) > 0) || len(got.Neighbors) != 0 {
									t.Fatalf("%s q%d: Partial=%v with %d neighbors", name, qi, ce.Partial, len(got.Neighbors))
								}
								if got.Route != wantRoute {
									t.Fatalf("%s q%d: cancelled on route %v, want %v", name, qi, got.Route, wantRoute)
								}
							default:
								if err != nil || got.Route != wantRoute {
									t.Fatalf("%s q%d: route=%v err=%v, want %v", name, qi, got.Route, err, wantRoute)
								}
								if len(got.Neighbors) != k {
									t.Fatalf("%s q%d: %d neighbors, want %d", name, qi, len(got.Neighbors), k)
								}
								for i, n := range got.Neighbors {
									if tw.deleted[n.ID] {
										t.Fatalf("%s q%d: returned acknowledged-deleted id %d", name, qi, n.ID)
									}
									if fl.f != nil && !fl.f(n.ID) {
										t.Fatalf("%s q%d: id %d fails the filter", name, qi, n.ID)
									}
									if i > 0 && n.Less(got.Neighbors[i-1]) {
										t.Fatalf("%s q%d: results out of (Dist, ID) order: %v", name, qi, got.Neighbors)
									}
								}
								if reuse && &got.Neighbors[0] != &dstB[:1][0] {
									t.Fatalf("%s q%d: results did not land in Dst", name, qi)
								}
								if (got.Route == RouteNDP || got.Route == RouteHost) != (got.Lines == 0) {
									t.Fatalf("%s q%d: route %v reports %d lines", name, qi, got.Route, got.Lines)
								}
							}

							// A context that never fires changes nothing (the
							// adaptive twin is exempt: its calibration moved
							// between the two passes).
							if ck.name == "background" {
								got.Neighbors = append([]Neighbor(nil), got.Neighbors...)
								ref[qi] = got
							}
							if ck.name == "live" && !tw.a.adaptive() &&
								!(reflect.DeepEqual(got.Neighbors, ref[qi].Neighbors) && got.Route == ref[qi].Route &&
									got.Lines == ref[qi].Lines && got.Tiered == ref[qi].Tiered) {
								t.Fatalf("%s q%d: a live context changed the answer:\n  live       %+v\n  background %+v", name, qi, got, ref[qi])
							}

							// The wrapper, on the twin, against the Do it wraps.
							wq := q
							wq.Dst = dstA
							wrap := wrapperFor(tw.a, &wq, ck.name == "background")
							if wrap == nil {
								// Keep the twins in lockstep.
								ctx, cancel := ck.make()
								tw.a.Do(ctx, &wq)
								cancel()
								continue
							}
							ctx, cancel = ck.make()
							w, werr := wrap(ctx)
							cancel()
							if !sameError(werr, err) {
								t.Fatalf("%s q%d: wrapper err %v, Do err %v", name, qi, werr, err)
							}
							if !reflect.DeepEqual(w.Neighbors, got.Neighbors) {
								t.Fatalf("%s q%d: wrapper diverges from Do:\n  wrapper %v\n  Do      %v", name, qi, w.Neighbors, got.Neighbors)
							}
							if route == RouteTiered && w.Tiered != got.Tiered {
								t.Fatalf("%s q%d: wrapper stats %+v, Do stats %+v", name, qi, w.Tiered, got.Tiered)
							}
							if route == RouteExact && w.Lines != got.Lines {
								t.Fatalf("%s q%d: wrapper lines %d, Do lines %d", name, qi, w.Lines, got.Lines)
							}
						}
					}
				}
			}
		}
	}

	// A cancellation that lands mid-traversal: the Filter (called once per
	// accepted candidate on the base layer) cancels a real context at its
	// 40th call, so the beam stops at the next checkpoint with a non-empty
	// filtered partial — deterministically, twice over.
	beamPartial := func(t *testing.T, route Route) []Result {
		var out []Result
		for _, tw := range twins {
			var runs [2]Result
			for r := range runs {
				ctx, cancel := context.WithCancel(context.Background())
				calls := 0
				q := Query{Vector: tw.queries[0], K: k, Ef: 200, Route: route, Filter: func(id uint32) bool {
					if calls++; calls == 40 {
						cancel()
					}
					return even(id)
				}}
				res, err := []*Database{tw.a, tw.b}[r].Do(ctx, &q)
				cancel()
				var ce *CancelError
				if !errors.As(err, &ce) || !ce.Partial || !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
					t.Fatalf("%s: err=%v, want a partial ErrCanceled", tw.name, err)
				}
				if len(res.Neighbors) == 0 || res.Route != route {
					t.Fatalf("%s: %d partial neighbors on route %v", tw.name, len(res.Neighbors), res.Route)
				}
				for _, n := range res.Neighbors {
					if !even(n.ID) || tw.deleted[n.ID] {
						t.Fatalf("%s: partial holds filtered-out or deleted id %d", tw.name, n.ID)
					}
				}
				runs[r] = res
			}
			if !reflect.DeepEqual(runs[0], runs[1]) {
				t.Fatalf("%s: the same mid-flight cancellation gave two answers:\n%v\n%v", tw.name, runs[0], runs[1])
			}
			out = append(out, runs[0])
		}
		return out
	}
	t.Run("ndp partial", func(t *testing.T) { beamPartial(t, RouteNDP) })
	// The host beam is the same traversal, so it stops at the same checkpoint
	// holding the same partial (where the ndp engine is exact).
	t.Run("host partial", func(t *testing.T) {
		ndp := beamPartial(t, RouteNDP)
		for i, host := range beamPartial(t, RouteHost) {
			if tw := twins[i]; !tw.a.adaptive() && !reflect.DeepEqual(host.Neighbors, ndp[i].Neighbors) {
				t.Fatalf("%s: host partial %v, ndp partial %v", tw.name, host.Neighbors, ndp[i].Neighbors)
			}
		}
	})

	t.Run("DoMany", func(t *testing.T) {
		ctx := context.Background()
		for _, tw := range twins {
			// Concurrent workers would feed an adaptive tuner in a different
			// order than the serial twin sees.
			workers := 3
			if tw.a.adaptive() {
				workers = 1
			}
			for _, route := range []Route{RouteNDP, RouteHost, RouteTiered, RouteExact, RouteAuto} {
				plan := Query{K: k, Ef: 40, Route: route}
				many, manyRoute, err := tw.a.DoMany(ctx, tw.queries, &plan, workers)
				if err != nil {
					t.Fatalf("%s/%v: %v", tw.name, route, err)
				}
				for qi, vec := range tw.queries {
					q := plan
					q.Vector = vec
					want, err := tw.b.Do(ctx, &q)
					if err != nil {
						t.Fatal(err)
					}
					if manyRoute != want.Route || !reflect.DeepEqual(many[qi], want.Neighbors) {
						t.Fatalf("%s/%v q%d: DoMany (route %v) diverges from serial Do (route %v):\n  many   %v\n  serial %v",
							tw.name, route, qi, manyRoute, want.Route, many[qi], want.Neighbors)
					}
				}
			}
		}
	})

	// The existing vetted fully-reachable build (see cluster_test.go):
	// at an exhaustive beam the ndp merge is provably the unsharded answer,
	// and the tiered (budget 1) and exact routes are at any size.
	t.Run("Cluster", func(t *testing.T) {
		p := dataset.ProfileByName("DEEP")
		const n = 96
		ds := dataset.Generate(p, n, 4, 21)
		build := Options{Metric: p.Metric, Elem: p.Elem, M: 24, MaxDegree: 24, EfConstruction: 200, Seed: 4}
		db, err := New(ds.Vectors, build)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for _, shards := range []int{1, 3, 7} {
			cl, err := NewCluster(ds.Vectors, ClusterOptions{Shards: shards, Build: build, DisableHedging: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, route := range []Route{RouteNDP, RouteHost, RouteTiered, RouteExact, RouteAuto} {
				for _, fl := range filters {
					if fl.f != nil && route != RouteNDP && route != RouteHost && route != RouteAuto {
						if _, err := cl.Do(ctx, &Query{Vector: ds.Queries[0], K: k, Route: route, Filter: fl.f}); !errors.Is(err, errFilterRoute) {
							t.Fatalf("shards=%d %v: filtered err=%v, want errFilterRoute", shards, route, err)
						}
						continue
					}
					for qi, vec := range ds.Queries {
						q := Query{Vector: vec, K: k, Ef: n + 16, Route: route, Filter: fl.f}
						want, err := db.Do(ctx, &q)
						if err != nil {
							t.Fatal(err)
						}
						got, err := cl.Do(ctx, &q)
						if err != nil || got.Partial || got.Route != want.Route {
							t.Fatalf("shards=%d %v/%s q%d: route=%v (unsharded %v) partial=%v err=%v",
								shards, route, fl.name, qi, got.Route, want.Route, got.Partial, err)
						}
						if !reflect.DeepEqual(got.Neighbors, want.Neighbors) {
							t.Fatalf("shards=%d %v/%s q%d:\n  cluster   %v\n  unsharded %v", shards, route, fl.name, qi, got.Neighbors, want.Neighbors)
						}
					}
				}
			}
		}
	})
}
