package rows

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestTombSet holds the deletion bitmap to its copy-and-publish contract:
// readers running beside the single writer see every delete that returned
// before their read began — through IsDeleted and through Word — and never
// a mark on an id that was not deleted, while the writer grows the word
// array through several reallocations. A repeated Delete is refused and
// leaves Count alone, a Word past the array reads 0, IDs comes back
// ascending, and a nil set's Filter is nil.
func TestTombSet(t *testing.T) {
	var none *TombSet
	if none.Filter() != nil {
		t.Fatal("a nil set's Filter is not nil")
	}

	ts := NewTombSet()
	if ts.Word(0) != 0 || ts.Word(1000) != 0 || ts.IsDeleted(7) {
		t.Fatal("an empty set reads marks")
	}
	// Every third id, ascending, so the array grows word by word: each
	// growth past its length reallocates it.
	var order []uint32
	for id := uint32(0); id < 1<<14; id += 3 {
		order = append(order, id)
	}
	var (
		published atomic.Int64 // deletes of order that have returned
		stop      atomic.Bool
		wg        sync.WaitGroup
		errs      = make(chan string, 4)
	)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				m := int(published.Load())
				if m > 0 {
					id := order[(i*7+r)%m]
					if !ts.IsDeleted(id) || ts.Word(int(id>>6))&(1<<(id&63)) == 0 {
						errs <- "a returned delete is not visible"
						return
					}
					if id := order[m-1]; !ts.IsDeleted(id) {
						errs <- "the latest returned delete is not visible"
						return
					}
				}
				if other := uint32(i%5461)*3 + 1; ts.IsDeleted(other) {
					errs <- "an id that was never deleted reads as deleted"
					return
				}
			}
		}(r)
	}
	reallocs := 0
	for i, id := range order {
		before := ts.words.Load()
		if !ts.Delete(id) {
			t.Fatalf("first delete of %d refused", id)
		}
		if ts.words.Load() != before {
			reallocs++
		}
		published.Store(int64(i + 1))
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if reallocs < 5 {
		t.Fatalf("the word array grew %d times, want several", reallocs)
	}

	if ts.Delete(order[10]) || ts.Count() != len(order) {
		t.Fatalf("repeated delete: Count %d, want %d", ts.Count(), len(order))
	}
	words := len(*ts.words.Load())
	if ts.Word(words) != 0 || ts.Word(words+100) != 0 {
		t.Fatal("a word past the array is not 0")
	}
	ids := ts.IDs()
	if !slices.Equal(ids, order) || !slices.IsSorted(ids) {
		t.Fatalf("IDs: %d ids, want the %d deleted in ascending order", len(ids), len(order))
	}
	live := ts.Filter()
	if live(order[3]) || !live(order[3]+1) {
		t.Fatal("Filter disagrees with IsDeleted")
	}
}
