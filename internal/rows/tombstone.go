package rows

import (
	"math/bits"
	"sync/atomic"
)

// TombSet is the deletion bitmap of a slab's slots, consulted by every query
// path of a live database: beam searches filter results through it, and the
// exact and tiered scans skip marked ids. Reads (IsDeleted) are lock-free — one
// atomic pointer load plus one atomic word load — so the query hot path
// stays allocation- and lock-free. Writes come from the single mutation
// writer (the Database's write lock); the word array grows by
// copy-and-publish so readers never observe a torn slice header.
//
// Visibility contract: Delete's word store is an atomic release, so any
// IsDeleted that starts after Delete returns observes the tombstone.
// Searches already in flight when the delete lands may still return the
// id — deletion acknowledgment orders against *subsequent* searches, the
// same regime as a row deleted mid-scan in an MVCC store.
type TombSet struct {
	words atomic.Pointer[[]atomic.Uint64]
	n     atomic.Int64
}

// NewTombSet returns an empty set.
func NewTombSet() *TombSet {
	t := &TombSet{}
	empty := make([]atomic.Uint64, 0)
	t.words.Store(&empty)
	return t
}

// IsDeleted reports whether id is tombstoned. Lock-free; safe from any
// goroutine.
func (t *TombSet) IsDeleted(id uint32) bool {
	return t.Word(int(id>>6))&(1<<(id&63)) != 0
}

// Word returns the marks of ids 64·wi .. 64·wi+63, id 64·wi+b's in bit b.
// Lock-free, like IsDeleted.
func (t *TombSet) Word(wi int) uint64 {
	w := *t.words.Load()
	if wi >= len(w) {
		return 0
	}
	return w[wi].Load()
}

// Delete tombstones id, returning false when it already was. Single
// writer only.
func (t *TombSet) Delete(id uint32) bool {
	wi := int(id >> 6)
	w := *t.words.Load()
	if wi >= len(w) {
		nw := make([]atomic.Uint64, wi+1+wi/2)
		for i := range w {
			nw[i].Store(w[i].Load())
		}
		t.words.Store(&nw)
		w = nw
	}
	bit := uint64(1) << (id & 63)
	v := w[wi].Load()
	if v&bit != 0 {
		return false
	}
	w[wi].Store(v | bit)
	t.n.Add(1)
	return true
}

// Filter returns the predicate the beam paths pass to the graph traversal —
// true for an id that is not tombstoned — or nil for a nil set (an immutable
// database). Make it once and keep it: a closure per query would allocate.
func (t *TombSet) Filter() func(uint32) bool {
	if t == nil {
		return nil
	}
	return func(id uint32) bool { return !t.IsDeleted(id) }
}

// Count returns the number of tombstoned ids.
func (t *TombSet) Count() int { return int(t.n.Load()) }

// IDs returns the tombstoned ids in ascending order (a snapshot; writer-
// side callers see their own completed deletes).
func (t *TombSet) IDs() []uint32 {
	w := *t.words.Load()
	out := make([]uint32, 0, t.Count())
	for wi := range w {
		v := w[wi].Load()
		for v != 0 {
			out = append(out, uint32(wi<<6)+uint32(bits.TrailingZeros64(v)))
			v &= v - 1
		}
	}
	return out
}
