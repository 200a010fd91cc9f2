package ansmet

import (
	"context"
	"errors"
	"testing"
	"time"
)

// expiredCtx returns a context whose deadline already passed.
func expiredCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	t.Cleanup(cancel)
	if ctx.Err() == nil {
		t.Fatal("context not expired")
	}
	return ctx
}

// searchCtx drives Do the way the cancellation tests need it: the ndp route
// at the default beam width under ctx.
func searchCtx(ctx context.Context, db *Database, q []float32, k int) ([]Neighbor, error) {
	res, err := db.Do(ctx, &Query{Vector: q, K: k, Route: RouteNDP})
	return res.Neighbors, err
}

// TestSearchCtxExpiredDeadline: an already-expired context is rejected up
// front — typed error, no results, and the index is never touched (proved
// by passing a query the validator would otherwise reject).
func TestSearchCtxExpiredDeadline(t *testing.T) {
	db := tinyDB(t)
	ctx := expiredCtx(t)
	q := make([]float32, 8)

	nn, err := searchCtx(ctx, db, q, 5)
	if nn != nil {
		t.Fatalf("expired ctx returned %d results, want none", len(nn))
	}
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want errors.Is(ErrDeadlineExceeded)", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want errors.Is(context.DeadlineExceeded)", err)
	}
	var ce *CancelError
	if !errors.As(err, &ce) || ce.Partial {
		t.Fatalf("err = %#v, want *CancelError with Partial=false", err)
	}

	// A wrong-dimension query normally fails validation with ErrDimension;
	// on an expired context the deadline error wins because validation (and
	// everything after it) is never reached.
	_, err = searchCtx(ctx, db, make([]float32, 3), 5)
	if errors.Is(err, ErrDimension) || !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired ctx with bad query: err = %v, want deadline error (index untouched)", err)
	}

	for _, route := range []Route{RouteAuto, RouteTiered, RouteExact} {
		if _, err := db.Do(ctx, &Query{Vector: q, K: 5, Route: route}); !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("Do %v err = %v, want ErrDeadlineExceeded", route, err)
		}
	}
	if _, _, err := db.DoMany(ctx, [][]float32{q}, &Query{K: 5, Ef: 10, Route: RouteNDP}, 1); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("DoMany err = %v, want ErrDeadlineExceeded", err)
	}
}

// TestSearchCtxCanceled: explicit cancellation classifies as ErrCanceled
// (and context.Canceled), distinct from the deadline sentinel.
func TestSearchCtxCanceled(t *testing.T) {
	db := tinyDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := searchCtx(ctx, db, make([]float32, 8), 5)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled / context.Canceled", err)
	}
	if errors.Is(err, ErrDeadlineExceeded) || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v matches the deadline sentinels, want cancel only", err)
	}
}

// TestSearchCtxMatchesSearch: a context that never fires must not change a
// single result bit relative to the plain entry points.
func TestSearchCtxMatchesSearch(t *testing.T) {
	db := tinyDB(t)
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		q, _ := db.Vector(uint32(i * 7))
		want, err := db.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		got, err := searchCtx(ctx, db, q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("q%d: %d results, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("q%d result %d: %+v != %+v", i, j, got[j], want[j])
			}
		}

		ref, err := db.Do(context.Background(), &Query{Vector: q, K: 5, Route: RouteExact})
		if err != nil {
			t.Fatal(err)
		}
		wantNN, wantLines := ref.Neighbors, ref.Lines
		exact, err := db.Do(ctx, &Query{Vector: q, K: 5, Route: RouteExact})
		gotNN, gotLines := exact.Neighbors, exact.Lines
		if err != nil || gotLines != wantLines || len(gotNN) != len(wantNN) {
			t.Fatalf("q%d exact: err=%v lines=%d/%d n=%d/%d",
				i, err, gotLines, wantLines, len(gotNN), len(wantNN))
		}
		// The scan reads every row whole: 8 float32 components are one line.
		if wantLines != db.Len() {
			t.Fatalf("q%d exact: %d lines over %d one-line rows", i, wantLines, db.Len())
		}
		for j := range wantNN {
			if gotNN[j] != wantNN[j] {
				t.Fatalf("q%d exact result %d: %+v != %+v", i, j, gotNN[j], wantNN[j])
			}
		}
	}
}

// TestSearchCtxInvalidInput: a live context still surfaces the input
// validation sentinels (and IsInvalidInput classifies them).
func TestSearchCtxInvalidInput(t *testing.T) {
	db := tinyDB(t)
	ctx := context.Background()
	if _, err := searchCtx(ctx, db, make([]float32, 3), 5); !errors.Is(err, ErrDimension) {
		t.Fatalf("err = %v, want ErrDimension", err)
	}
	_, err := searchCtx(ctx, db, make([]float32, 8), 0)
	if !errors.Is(err, ErrBadK) || !IsInvalidInput(err) {
		t.Fatalf("err = %v, want ErrBadK classified by IsInvalidInput", err)
	}
	if IsInvalidInput(&CancelError{Err: ErrDeadlineExceeded}) {
		t.Fatal("IsInvalidInput misclassifies a cancellation error")
	}
}

// TestSearchManyCtxMidCancel: cancelling while the batch runs stops the
// pool within one query, keeps the completed queries' results, and leaves
// the unstarted ones nil. The test hook makes the cancellation point
// deterministic (single worker, cancel before query 8 starts).
func TestSearchManyCtxMidCancel(t *testing.T) {
	db := tinyDB(t)
	queries := make([][]float32, 32)
	for i := range queries {
		queries[i], _ = db.Vector(uint32(i))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const cancelAt = 8
	doManyTestHook = func(i int) {
		if i == cancelAt {
			cancel()
		}
	}
	defer func() { doManyTestHook = nil }()

	out, _, err := db.DoMany(ctx, queries, &Query{K: 3, Ef: 10, Route: RouteNDP}, 1)
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CancelError", err)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !ce.Partial {
		t.Fatal("completed queries present but Partial=false")
	}
	if len(out) != len(queries) {
		t.Fatalf("out has %d slots, want %d", len(out), len(queries))
	}
	for i := 0; i < cancelAt; i++ {
		if out[i] == nil {
			t.Fatalf("completed query %d lost its results", i)
		}
	}
	for i := cancelAt; i < len(out); i++ {
		if out[i] != nil {
			t.Fatalf("query %d ran after cancellation", i)
		}
	}
}
