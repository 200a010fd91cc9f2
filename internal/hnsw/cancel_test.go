package hnsw

import (
	"testing"

	"ansmet/internal/dataset"
	"ansmet/internal/engine"
)

// cancellingEngine wraps an engine and closes done after a fixed number of
// Compare calls — a deterministic way to fire cancellation mid-traversal.
type cancellingEngine struct {
	engine.Engine
	after  int
	calls  int
	done   chan struct{}
	closed bool
}

func (e *cancellingEngine) Compare(id uint32, th float64) engine.Result {
	e.calls++
	if e.calls == e.after && !e.closed {
		close(e.done)
		e.closed = true
	}
	return e.Engine.Compare(id, th)
}

func cancelTestIndex(t *testing.T) (*Index, *dataset.Dataset) {
	t.Helper()
	ds := dataset.Generate(dataset.ProfileByName("SIFT"), 800, 4, 17)
	ix, err := Build(ds.Rows(), ds.Profile.Metric, Config{
		M: 8, MaxDegree: 16, EfConstruction: 60, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix, ds
}

// TestSearchCancelNilDoneIdentical: a nil (or never-fired) done channel
// must not change a single result bit relative to the plain search path.
func TestSearchCancelNilDoneIdentical(t *testing.T) {
	ix, ds := cancelTestIndex(t)
	eng := engine.NewExact(ds.Vectors, ds.Profile.Metric, ds.Profile.Elem)
	never := make(chan struct{})
	for _, q := range ds.Queries {
		want := ix.SearchFilteredInto(q, 10, 50, 1, nil, eng, nil, nil)
		got, cancelled := ix.SearchCancelInto(never, q, 10, 50, 1, nil, eng, nil, nil)
		if cancelled {
			t.Fatal("never-fired done reported cancellation")
		}
		if len(got) != len(want) {
			t.Fatalf("%d results, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("result %d: %+v != %+v", i, got[i], want[i])
			}
		}
	}
}

// TestSearchCancelAlreadyClosed: a pre-closed done channel returns before
// the engine sees a single comparison.
func TestSearchCancelAlreadyClosed(t *testing.T) {
	ix, ds := cancelTestIndex(t)
	ce := &cancellingEngine{
		Engine: engine.NewExact(ds.Vectors, ds.Profile.Metric, ds.Profile.Elem),
		after:  -1, done: make(chan struct{}),
	}
	close(ce.done)
	ce.closed = true
	got, cancelled := ix.SearchCancelInto(ce.done, ds.Queries[0], 10, 50, 1, nil, ce, nil, nil)
	if !cancelled {
		t.Fatal("closed done not reported as cancellation")
	}
	if len(got) != 0 {
		t.Fatalf("%d results from an aborted search, want 0", len(got))
	}
	if ce.calls != 0 {
		t.Fatalf("aborted search still issued %d comparisons", ce.calls)
	}
}

// TestSearchCancelMidFlightBounded: when done fires mid-traversal, the
// search stops within one checkpoint interval — the number of comparisons
// issued after the cancellation is bounded by cancelCheckHops hops' worth
// of work — and returns whatever (sorted) results it had.
func TestSearchCancelMidFlightBounded(t *testing.T) {
	ix, ds := cancelTestIndex(t)
	for _, after := range []int{1, 10, 40, 120} {
		ce := &cancellingEngine{
			Engine: engine.NewExact(ds.Vectors, ds.Profile.Metric, ds.Profile.Elem),
			after:  after, done: make(chan struct{}),
		}
		got, cancelled := ix.SearchCancelInto(ce.done, ds.Queries[0], 10, 200, 1, nil, ce, nil, nil)
		if !cancelled {
			// The whole search finished in fewer than `after` comparisons —
			// legitimate for large thresholds; ensure that's why.
			if ce.calls >= after {
				t.Fatalf("after=%d: %d comparisons but no cancellation", after, ce.calls)
			}
			continue
		}
		// One checkpoint interval: cancelCheckHops hops, each at most
		// 1 pop + MaxDegree neighbor comparisons (batch=1), plus the hop
		// already in flight when done closed.
		bound := (cancelCheckHops + 1) * (16 + 1)
		if overrun := ce.calls - after; overrun > bound {
			t.Fatalf("after=%d: %d comparisons after cancellation, bound %d", after, overrun, bound)
		}
		for i := 1; i < len(got); i++ {
			if got[i].Dist < got[i-1].Dist {
				t.Fatalf("partial results unsorted at %d: %+v", i, got)
			}
		}
	}
}
