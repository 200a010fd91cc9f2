package core

import (
	"fmt"

	"ansmet/internal/bitplane"
)

// The store's one publication path. The encoded slots live in a storeDyn
// snapshot: BuildStore publishes the first, every AppendVector (one writer)
// the next, and engines pin one per query at StartQuery. New vectors are
// encoded *incrementally* under the frozen layout and prefix configuration
// (schedule, slot geometry and outlier prefix were derived from the sample
// taken when the store was built and stay fixed) — no stop-the-world
// re-transformation. Re-deriving the schedule for a drifted distribution is
// future work; the frozen one stays correct (bounds remain conservative), it
// just may fetch more lines than a re-tuned one would.
//
// Publication mirrors internal/hnsw/mutate.go. The row itself is not the
// store's to publish: the one writer appends it to the shared slab
// (internal/rows), then calls AppendVector for the encoded slot, then inserts
// the id into the graph. The happens-before edge for a new id runs through
// the graph's count atomic — slab and store publish before the index
// publishes the id, and a searcher captures its graph view before it pins the
// store and the slab — so every id the traversal can produce is backed by
// encoded data in the engine's snapshot and by a row in its slab view. A
// database's Add publishes the row and the graph node itself, so a model
// built over a database (Database.NewSystem) cannot take that order: its
// caller feeds each acknowledged add to AppendVector and searches the model
// once it has.

// storeDyn is one published snapshot of the store's growable arrays.
type storeDyn struct {
	data        []byte // slotLines*64 bytes per vector
	isOutlier   []bool
	numOutliers int
}

// AppendVector encodes v — row id, which the caller has just appended to the
// store's slab — under the frozen layout/prefix into a fresh slot and
// publishes it. Single mutating writer only; engines running concurrently
// are unaffected until the graph can reach the id.
func (s *Store) AppendVector(id uint32, v []float32) error {
	if len(v) != s.Dim {
		return fmt.Errorf("core: vector has %d dims, store holds %d", len(v), s.Dim)
	}
	d := s.dyn.Load()
	if n := len(d.isOutlier); int(id) != n || n >= s.rows.Len() {
		return fmt.Errorf("core: slot %d: the store holds %d slots, the slab %d rows", id, n, s.rows.Len())
	}
	// Appending in place is sound: a reader's snapshot ends at its own
	// length, and bytes past it are written before the next one publishes.
	sz := s.slotLines * bitplane.LineBytes
	next := &storeDyn{data: append(d.data, make([]byte, sz)...), numOutliers: d.numOutliers}
	outlier := s.encode(v, next.data[len(d.data):])
	if outlier {
		next.numOutliers++
	}
	next.isOutlier = append(d.isOutlier, outlier)
	s.dyn.Store(next)
	return nil
}

// snapshotStore pins the engine's per-query view of the store arrays.
func (e *ETEngine) snapshotStore() {
	d := e.store.dyn.Load()
	e.sdata, e.soutl = d.data, d.isOutlier
}

// slot returns the storage bytes of vector id in the engine's pinned
// snapshot.
func (e *ETEngine) slot(id uint32) []byte {
	sz := e.store.slotLines * bitplane.LineBytes
	return e.sdata[int(id)*sz : (int(id)+1)*sz]
}

// SetTombstones installs the deletion bitmap: ExactKNN and the tiered
// stage-1 scan skip tombstoned ids (the beam path filters at the graph
// layer instead). A nil set restores the unfiltered scans.
func (e *ETEngine) SetTombstones(t *TombSet) { e.tomb = t }
