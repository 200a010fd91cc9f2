package core

import (
	"fmt"

	"ansmet/internal/bitplane"
)

// Live mutation support for the early-termination store. A Store is
// immutable after Build unless EnableMutation is called; a live store
// accepts AppendVector from a single mutating writer while engines read
// concurrently. New vectors are encoded *incrementally* under the frozen
// layout and prefix configuration (the bit-plane schedule, slot geometry
// and outlier prefix were derived from the build-time sample and stay
// fixed) — no stop-the-world re-transformation. A background re-derivation
// of the schedule for a drifted distribution is future work; the frozen
// schedule stays correct (bounds remain conservative), it just may fetch
// more lines than a re-tuned one would.
//
// Publication mirrors internal/hnsw/mutate.go: the writer appends to its
// private slices and republishes a storeDyn snapshot; engines pin one
// snapshot per query at StartQuery. The row itself is not the store's to
// publish: the one writer appends it to the shared slab (internal/rows),
// then calls AppendVector for the encoded slot, then inserts the id into the
// graph. The happens-before edge for a new id runs through the graph's count
// atomic — slab and store publish before the index publishes the id, and a
// searcher captures its graph view before it pins the store and the slab —
// so every id the traversal can produce is backed by encoded data in the
// engine's snapshot and by a row in its slab view.

// storeDyn is one published snapshot of the store's growable arrays.
type storeDyn struct {
	data        []byte
	isOutlier   []bool
	numOutliers int
}

// EnableMutation switches the store into live mode. Idempotent; must be
// called before any concurrent use.
func (s *Store) EnableMutation() {
	if s.dyn.Load() != nil {
		return
	}
	s.dyn.Store(&storeDyn{data: s.data, isOutlier: s.isOutlier, numOutliers: s.numOutliers})
}

// Live reports whether the store accepts appends.
func (s *Store) Live() bool { return s.dyn.Load() != nil }

// AppendVector encodes v — the row the caller has just appended to the
// store's slab — under the frozen layout/prefix into a fresh slot and
// publishes it, returning the new id. Single mutating writer only; engines
// running concurrently are unaffected until the graph can reach the id.
func (s *Store) AppendVector(v []float32) (uint32, error) {
	if s.dyn.Load() == nil {
		return 0, fmt.Errorf("core: AppendVector on an immutable store (call EnableMutation first)")
	}
	if len(v) != s.Dim {
		return 0, fmt.Errorf("core: vector has %d dims, store holds %d", len(v), s.Dim)
	}
	id := uint32(len(s.isOutlier))
	if int(id) >= s.rows.Len() {
		return 0, fmt.Errorf("core: slot %d has no row in the slab yet (%d rows)", id, s.rows.Len())
	}
	sz := s.slotLines * bitplane.LineBytes
	old := len(s.data)
	s.data = append(s.data, make([]byte, sz)...)
	slot := s.data[old : old+sz]
	codes := s.Elem.EncodeVector(v, s.encCodes[:0])
	s.encCodes = codes
	outlier := false
	switch {
	case s.Prefix.Enabled() && !s.Prefix.IsNormalVector(codes):
		outlier = true
		s.numOutliers++
		s.Prefix.EncodeOutlier(codes, slot)
	case s.Prefix.Enabled():
		s.encSuffix = s.Prefix.SuffixCodes(codes, s.encSuffix[:0])
		s.Layout.Transform(s.encSuffix, slot)
	default:
		s.Layout.Transform(codes, slot)
	}
	s.isOutlier = append(s.isOutlier, outlier)
	s.dyn.Store(&storeDyn{data: s.data, isOutlier: s.isOutlier, numOutliers: s.numOutliers})
	return id, nil
}

// snapshotStore pins the engine's per-query view of the store arrays. On
// an immutable store this aliases the plain fields (no atomics beyond one
// nil-check load, no behavior change).
func (e *ETEngine) snapshotStore() {
	if d := e.store.dyn.Load(); d != nil {
		e.sdata, e.soutl = d.data, d.isOutlier
		return
	}
	e.sdata, e.soutl = e.store.data, e.store.isOutlier
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
