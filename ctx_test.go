package ansmet

import (
	"context"
	"errors"
	"testing"
)

// searchCtx drives Do the way the cancellation tests need it: the host beam
// at the default beam width under ctx.
func searchCtx(ctx context.Context, db *Database, q []float32, k int) ([]Neighbor, error) {
	res, err := db.Do(ctx, &Query{Vector: q, K: k, Route: RouteHost})
	return res.Neighbors, err
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
// the unstarted ones nil. A context that fires on a counted Err call makes
// the cancellation point deterministic: one worker, query 8 cancelled before
// its first checkpoint.
func TestSearchManyCtxMidCancel(t *testing.T) {
	db := tinyDB(t)
	queries := make([][]float32, 32)
	for i := range queries {
		queries[i], _ = db.Vector(uint32(i))
	}
	const cancelAt = 8
	out, _, err := db.DoMany(newNthErrCtx(cancelAt+2), queries, &Query{K: 3, Ef: 10, Route: RouteHost}, 1)
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
