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
// snapshot per query at StartQuery. The happens-before edge for a new id
// runs through the graph's count atomic — the store publishes before the
// index publishes the id, and a searcher captures its graph view before
// snapshotting the store, so every id the traversal can produce is backed
// by encoded data in the engine's snapshot.

// storeDyn is one published snapshot of the store's growable arrays.
type storeDyn struct {
	vectors     [][]float32
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
	s.dyn.Store(&storeDyn{vectors: s.vectors, data: s.data, isOutlier: s.isOutlier, numOutliers: s.numOutliers})
}

// Live reports whether the store accepts appends.
func (s *Store) Live() bool { return s.dyn.Load() != nil }

// AppendVector encodes v under the frozen layout/prefix into a fresh slot
// and publishes it, returning the new id. Single mutating writer only;
// engines running concurrently are unaffected until the id becomes
// reachable through the graph.
func (s *Store) AppendVector(v []float32) (uint32, error) {
	if s.dyn.Load() == nil {
		return 0, fmt.Errorf("core: AppendVector on an immutable store (call EnableMutation first)")
	}
	if len(v) != s.Dim {
		return 0, fmt.Errorf("core: vector has %d dims, store holds %d", len(v), s.Dim)
	}
	id := uint32(len(s.vectors))
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
	s.vectors = append(s.vectors, v)
	s.isOutlier = append(s.isOutlier, outlier)
	s.dyn.Store(&storeDyn{vectors: s.vectors, data: s.data, isOutlier: s.isOutlier, numOutliers: s.numOutliers})
	return id, nil
}

// Rows returns the store's published row-major vectors (the backup
// region's content): the current snapshot of a live store, the build-time
// slice of an immutable one. Like ETEngine.snapshotStore, a searcher that
// calls it after capturing its graph view finds a row behind every id the
// traversal can produce. Read-only for the caller.
func (s *Store) Rows() [][]float32 {
	if d := s.dyn.Load(); d != nil {
		return d.vectors
	}
	return s.vectors
}

// VectorAt returns vector id from the store's published snapshot (the
// concurrent-reader analogue of indexing the builder's vectors slice) and
// whether the id exists.
func (s *Store) VectorAt(id uint32) ([]float32, bool) {
	rows := s.Rows()
	if int(id) >= len(rows) {
		return nil, false
	}
	return rows[id], true
}

// snapshotStore pins the engine's per-query view of the store arrays. On
// an immutable store this aliases the plain fields (no atomics beyond one
// nil-check load, no behavior change).
func (e *ETEngine) snapshotStore() {
	if d := e.store.dyn.Load(); d != nil {
		e.vecs, e.sdata, e.soutl = d.vectors, d.data, d.isOutlier
		return
	}
	e.vecs, e.sdata, e.soutl = e.store.vectors, e.store.data, e.store.isOutlier
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
