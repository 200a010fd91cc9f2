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

// doCase is one TestDoEquivalence configuration: a database, its queries
// and the ids deleted from it.
type doCase struct {
	name    string
	db      *Database
	queries [][]float32
	deleted map[uint32]bool
}

func buildDoCases(t *testing.T) []doCase {
	t.Helper()
	sift := dataset.ProfileByName("SIFT")
	sds := dataset.Generate(sift, 400, 5, 31)
	siftOpts := Options{Metric: sift.Metric, Elem: sift.Elem, EfConstruction: 60, Seed: 7}
	mutOpts := siftOpts
	mutOpts.Mutable, mutOpts.RepairEvery = true, 4
	deletes := []uint32{1, 5, 9, 20, 33, 399} // one repair batch at 4, two left pending
	deleted := map[uint32]bool{}
	for _, id := range deletes {
		deleted[id] = true
	}

	build := func(name string, opts Options, mutate bool) doCase {
		db, err := New(sds.Vectors, opts)
		if err != nil {
			t.Fatal(err)
		}
		c := doCase{name: name, db: db, queries: sds.Queries}
		if mutate {
			for _, id := range deletes {
				if err := db.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := db.Add(sds.Queries[0]); err != nil {
				t.Fatal(err)
			}
			c.deleted = deleted
		}
		return c
	}
	cases := []doCase{
		build("et", siftOpts, false),
		build("mutable", mutOpts, true),
	}
	if db := cases[1].db; db.Tombstones() != len(deletes) || db.Stats().PendingRepair == 0 {
		t.Fatalf("mutable case: %d tombstones, %d pending repair", db.Tombstones(), db.Stats().PendingRepair)
	}
	return cases
}

// nthErrCtx is a context whose Done closes on its n-th Err call and whose Err
// reports context.Canceled from the call after: the deterministic mid-flight
// cancellation (a timer racing the query would land on a different
// checkpoint every run, and two runs could not be compared). Do calls Err
// once on entry, so n = 1 passes that check and fires before the route's
// first checkpoint; a one-worker DoMany calls it once on entry and once per
// query, so n = i+2 does the same to query i.
type nthErrCtx struct {
	context.Context
	n, calls int
	done     chan struct{}
}

func newNthErrCtx(n int) *nthErrCtx {
	return &nthErrCtx{Context: context.Background(), n: n, done: make(chan struct{})}
}

func (c *nthErrCtx) Done() <-chan struct{} { return c.done }

func (c *nthErrCtx) Err() error {
	if c.calls++; c.calls == c.n {
		close(c.done)
	}
	if c.calls > c.n {
		return context.Canceled
	}
	return nil
}

// doCtxKinds are the context axis of the Do cells. Each call builds a fresh
// context (nthErrCtx counts its Err calls).
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
		return newNthErrCtx(1), func() {}
	}, ErrCanceled, context.Canceled},
}

// wrapperFor returns the surviving wrapper whose signature covers the cell
// (nil when none does: no wrapper takes a Filter, RouteAuto, the ndp beam or
// the exact route), adapted to Do's return shape.
func wrapperFor(db *Database, q *Query, background bool) func(context.Context) (Result, error) {
	if q.Filter != nil {
		return nil
	}
	switch q.Route {
	case RouteHost:
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

// TestDoEquivalence pins every surviving wrapper, byte for byte and error for
// error, to the Do call it wraps: {immutable, mutable with tombstones} ×
// {ndp, host, tiered} × the four
// contexts × {nil, reused Dst}, wherever a wrapper covers the cell. Do's own
// contract, cell by cell, is the contract harness's Do step
// (contract_test.go). The sub-tests pin the partial a cancellation
// mid-traversal leaves.
func TestDoEquivalence(t *testing.T) {
	cases := buildDoCases(t)
	const k = 10
	for _, c := range cases {
		for _, route := range []Route{RouteNDP, RouteHost, RouteTiered} {
			for _, reuse := range []bool{false, true} {
				for _, ck := range doCtxKinds {
					for qi, vec := range c.queries {
						name := fmt.Sprintf("%s/%v/%s/reuse=%v q%d", c.name, route, ck.name, reuse, qi)
						q := Query{Vector: vec, K: k, Route: route}
						if route != RouteTiered && qi%2 == 1 {
							q.Ef = 48 // odd queries exercise the explicit-beam wrappers
						}
						wq := q
						if reuse {
							// The beam appends ef entries before truncating to k.
							q.Dst, wq.Dst = make([]Neighbor, 3, 64), make([]Neighbor, 3, 64)
						}
						wrap := wrapperFor(c.db, &wq, ck.name == "background")
						if wrap == nil {
							continue
						}
						ctx, cancel := ck.make()
						got, err := c.db.Do(ctx, &q)
						cancel()
						ctx, cancel = ck.make()
						w, werr := wrap(ctx)
						cancel()
						if !sameError(werr, err) {
							t.Fatalf("%s: wrapper err %v, Do err %v", name, werr, err)
						}
						if !reflect.DeepEqual(w.Neighbors, got.Neighbors) || route == RouteTiered && w.Tiered != got.Tiered {
							t.Fatalf("%s: wrapper diverges from Do:\n  wrapper %+v\n  Do      %+v", name, w, got)
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
	even := func(id uint32) bool { return id%2 == 0 }
	beamPartial := func(t *testing.T, route Route) []Result {
		var out []Result
		for _, c := range cases {
			var runs [2]Result
			for r := range runs {
				ctx, cancel := context.WithCancel(context.Background())
				calls := 0
				q := Query{Vector: c.queries[0], K: k, Ef: 200, Route: route, Filter: func(id uint32) bool {
					if calls++; calls == 40 {
						cancel()
					}
					return even(id)
				}}
				res, err := c.db.Do(ctx, &q)
				cancel()
				var ce *CancelError
				if !errors.As(err, &ce) || !ce.Partial || !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
					t.Fatalf("%s: err=%v, want a partial ErrCanceled", c.name, err)
				}
				if len(res.Neighbors) == 0 || res.Route != route {
					t.Fatalf("%s: %d partial neighbors on route %v", c.name, len(res.Neighbors), res.Route)
				}
				for _, n := range res.Neighbors {
					if !even(n.ID) || c.deleted[n.ID] {
						t.Fatalf("%s: partial holds filtered-out or deleted id %d", c.name, n.ID)
					}
				}
				runs[r] = res
			}
			if !reflect.DeepEqual(runs[0], runs[1]) {
				t.Fatalf("%s: the same mid-flight cancellation gave two answers:\n%v\n%v", c.name, runs[0], runs[1])
			}
			out = append(out, runs[0])
		}
		return out
	}
	t.Run("ndp partial", func(t *testing.T) { beamPartial(t, RouteNDP) })
	// The host beam is the same traversal, so it stops at the same checkpoint
	// holding the same partial.
	t.Run("host partial", func(t *testing.T) {
		ndp := beamPartial(t, RouteNDP)
		for i, host := range beamPartial(t, RouteHost) {
			if !reflect.DeepEqual(host.Neighbors, ndp[i].Neighbors) {
				t.Fatalf("%s: host partial %v, ndp partial %v", cases[i].name, host.Neighbors, ndp[i].Neighbors)
			}
		}
	})
}
