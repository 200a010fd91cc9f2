// Package ansmet is a from-scratch Go reproduction of ANSMET (ISCA 2025):
// approximate nearest neighbor search with DIMM-based near-memory
// processing and hybrid partial-dimension/partial-bit early termination.
//
// This package is the library: HNSW and IVF indexes over L2 /
// inner-product / cosine metrics and five element types, served from the
// rows by SIMD kernels. The paper's lossless early-termination distance
// engine (transformed bit-plane layouts, sampling-based layout optimization,
// outlier-aware common-prefix elimination) lives in the NDP model's
// functional view, which Database.NewSystem builds over a database on
// request. The timing simulator for the paper's CPU+NDP platform
// (internal/sim: DDR5 command timing, rank-level NDP units, result polling)
// runs over that view, outside the package, as does the
// harness that regenerates every table and figure of the paper's evaluation
// (see EXPERIMENTS.md).
//
// Quick start:
//
//	db, err := ansmet.New(vectors, ansmet.Options{
//		Metric: ansmet.L2,
//		Elem:   ansmet.Float32,
//	})
//	res, err := db.Do(ctx, &ansmet.Query{Vector: query, K: 10})
//
// Search results are exact with respect to the underlying index traversal:
// early termination provably never changes them (DESIGN.md, invariant 3).
package ansmet

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"ansmet/internal/core"
	"ansmet/internal/dataset"
	"ansmet/internal/engine"
	"ansmet/internal/hnsw"
	"ansmet/internal/rows"
	"ansmet/internal/vecmath"
	"ansmet/internal/wal"
)

// Typed search-input errors, matched with errors.Is. Searches validate
// their inputs up front and reject bad ones instead of producing confusing
// results (a NaN query component, for example, poisons every distance).
var (
	// ErrBadK rejects k <= 0.
	ErrBadK = errors.New("ansmet: k must be positive")
	// ErrBadEf rejects a beam width below k (the beam cannot hold the
	// requested result count).
	ErrBadEf = errors.New("ansmet: ef must be at least k")
	// ErrBadQuery rejects queries containing NaN or Inf components.
	ErrBadQuery = errors.New("ansmet: query has non-finite component")
	// ErrDimension rejects queries whose length differs from the indexed
	// vectors'.
	ErrDimension = errors.New("ansmet: query dimension mismatch")
)

// IsInvalidInput reports whether err is one of the typed query-validation
// errors (ErrBadK, ErrBadEf, ErrBadQuery, ErrDimension, or a Filter on a
// route that cannot honor one) — the class a serving layer should map to a
// client fault (HTTP 400) rather than a server fault.
func IsInvalidInput(err error) bool {
	return errors.Is(err, ErrBadK) || errors.Is(err, ErrBadEf) ||
		errors.Is(err, ErrBadQuery) || errors.Is(err, ErrDimension) ||
		errors.Is(err, errFilterRoute)
}

// validateQuery applies the typed input checks every search runs through
// (Database.do; Cluster.Do repeats them before fanning out, so a bad
// request is rejected once instead of counting as a failure on every
// shard).
func (db *Database) validateQuery(q []float32, k, ef int) error {
	if k <= 0 {
		return fmt.Errorf("%w (k=%d)", ErrBadK, k)
	}
	if ef < k {
		return fmt.Errorf("%w (k=%d ef=%d)", ErrBadEf, k, ef)
	}
	if len(q) != db.rows.Dim() {
		return fmt.Errorf("%w (got %d, want %d)", ErrDimension, len(q), db.rows.Dim())
	}
	if d := nonFinite(q); d >= 0 {
		return fmt.Errorf("%w (component %d is %v)", ErrBadQuery, d, q[d])
	}
	return nil
}

// Metric selects the distance definition.
type Metric = vecmath.Metric

// Distance metrics (paper §2.1). Cosine expects pre-normalized data; use
// Normalize during ingestion.
const (
	L2           = vecmath.L2
	InnerProduct = vecmath.InnerProduct
	Cosine       = vecmath.Cosine
)

// ElemType is the stored element type of vector components.
type ElemType = vecmath.ElemType

// Element types (paper Table 2).
const (
	Uint8    = vecmath.Uint8
	Int8     = vecmath.Int8
	Float16  = vecmath.Float16
	BFloat16 = vecmath.BFloat16
	Float32  = vecmath.Float32
)

// Design is a design point of the paper's evaluation (§6). A database has
// none of its own: Database.NewSystem builds the model at any design over
// its rows and graph. The name stays for LoadFile's parameter.
type Design = core.Design

// Neighbor is one search result.
type Neighbor = hnsw.Neighbor

// Normalize scales a vector to unit norm (cosine preprocessing).
func Normalize(v []float32) { vecmath.Normalize(v) }

// Options configures a Database.
type Options struct {
	// Metric is the distance definition (default L2).
	Metric Metric
	// Elem is the stored element type. Vector values are quantized to this
	// type during ingestion. The default is the zero value, Uint8, which
	// rounds every component to an integer in [0, 255]; set Float32 for
	// float data.
	Elem ElemType
	// M, MaxDegree, EfConstruction configure HNSW construction; zero
	// values take the paper's defaults (16/16/500). Lower EfConstruction
	// substantially for large interactive builds.
	M, MaxDegree, EfConstruction int

	// Seed drives all randomized choices (level assignment, sampling).
	Seed uint64

	// Mutable switches the database into live-mutable mode: Add, Delete
	// and Update become legal under concurrent search traffic, optionally
	// journaled through a write-ahead log (AttachWAL / LoadFile). The row
	// slab is the ingester. See DESIGN.md, "Mutable index and durability
	// semantics".
	Mutable bool

	// RepairEvery is the pending-delete batch size that triggers the
	// deferred graph repair (edge excision around tombstoned nodes). Zero
	// means 64; negative disables automatic repair (Maintain still forces
	// one). The trigger is deterministic — it counts operations, not wall
	// time — so crash recovery replays to an identical graph.
	RepairEvery int
}

func (o *Options) fill() {
	if o.M == 0 {
		o.M = 16
	}
	if o.MaxDegree == 0 {
		o.MaxDegree = 16
	}
	if o.EfConstruction == 0 {
		o.EfConstruction = 500
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Database is a built ANSMET instance. It owns what it serves — the rows, the
// graph over them, the tombstones — and keeps no NDP model: NewSystem builds
// one over those on request. The vector population is immutable unless
// Options.Mutable enabled the live mutation path (live.go): Add/Delete/Update
// then serialize behind mu while searches stay concurrent and lock-free.
type Database struct {
	opts Options
	// rows is the one store of the (quantized) vectors, in their element
	// type: index and host engines read it, Add appends.
	rows   *rows.Slab
	index  *hnsw.Index
	tomb   *core.TombSet // deletion bitmap; nil on an immutable database
	router *engine.Router

	scratchPool sync.Pool // *searchScratch

	// Live-mutation state (live.go). tomb and liveFilter are set before any
	// concurrent use and read-only afterwards; everything else is guarded by
	// mu, except muts (atomic counters).
	mu          sync.Mutex        // the single-mutation-writer lock
	liveFilter  func(uint32) bool // tombstone filter for the beam paths; nil when immutable
	journal     *wal.Log          // nil until AttachWAL / LoadFile
	walBase     uint64            // journal compaction point (snapshot's WALSeq)
	walReplayed uint64            // records replayed at recovery
	pending     []uint32          // tombstoned ids awaiting graph repair
	payload     []byte            // commit's journal payload scratch
	closed      bool
	muts        mutCounters
}

// mutCounters are the lifetime mutation totals — writes by record kind
// (recAdd, recDelete, recUpdate) and repair batches — atomics so Stats reads
// them without taking the writer lock.
type mutCounters struct {
	writes  [recUpdate + 1]atomic.Uint64
	repairs atomic.Uint64
}

// searchScratch is the reusable per-search state: the quantized query
// buffer, a private distance engine (engines hold per-query state, so each
// concurrent search needs its own) and a result buffer. Pooled on the
// Database so steady-state searches with a reused Query.Dst allocate nothing.
type searchScratch struct {
	qq  []float32
	buf []Neighbor
	// host is the lazy host compare engine of the host beam and the exact
	// scan (see Database.hostEngine).
	host *engine.Exact
}

func (db *Database) getScratch() *searchScratch {
	s, _ := db.scratchPool.Get().(*searchScratch)
	if s == nil {
		s = &searchScratch{qq: make([]float32, db.rows.Dim())}
	}
	return s
}

func (db *Database) putScratch(s *searchScratch) { db.scratchPool.Put(s) }

// nonFinite returns the index of v's first NaN or ±Inf component, or -1: the
// test behind ErrBadQuery, ErrBadVector (New, Add/Update) and journal replay.
func nonFinite(v []float32) int {
	for d, x := range v {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return d
		}
	}
	return -1
}

// quantizeInto fills dst with v quantized to elem and returns dst.
func quantizeInto(dst, v []float32, elem ElemType) []float32 {
	for d, x := range v {
		dst[d] = elem.Quantize(x)
	}
	return dst
}

// New ingests the vectors (quantizing them to the element type) and builds
// the HNSW index. The NDP model (the offline preprocessing: sampling, layout
// optimization, prefix elimination, layout transformation) is not built
// here: see NewSystem.
func New(vectors [][]float32, opts Options) (*Database, error) {
	if len(vectors) == 0 {
		return nil, fmt.Errorf("ansmet: empty dataset")
	}
	dim := len(vectors[0])
	if dim == 0 {
		return nil, fmt.Errorf("%w (vectors have no components)", ErrDimension)
	}
	opts.fill()
	// Quantize into the slab, the one copy of the data the database keeps.
	rs := rows.New(opts.Elem, dim)
	quant := make([]float32, dim)
	for i, v := range vectors {
		if len(v) != dim {
			return nil, fmt.Errorf("ansmet: vector %d has dim %d, want %d", i, len(v), dim)
		}
		if d := nonFinite(v); d >= 0 {
			return nil, fmt.Errorf("%w (vector %d component %d is %v)", ErrBadVector, i, d, v[d])
		}
		if _, err := rs.Append(quantizeInto(quant, v, opts.Elem)); err != nil {
			return nil, fmt.Errorf("ansmet: vector %d: %w", i, err)
		}
	}
	ix, err := hnsw.Build(rs, opts.Metric, hnsw.Config{
		M: opts.M, MaxDegree: opts.MaxDegree,
		EfConstruction: opts.EfConstruction, Seed: opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	return newDatabase(opts, rs, ix), nil
}

// newDatabase wires a database around the rows and the graph New built or
// Load restored: router, mutation.
func newDatabase(opts Options, rs *rows.Slab, ix *hnsw.Index) *Database {
	db := &Database{opts: opts, rows: rs, index: ix, router: engine.NewRouter()}
	if opts.Mutable {
		// Before any concurrent use: the graph flips its publication protocol
		// on while single-threaded.
		db.tomb = core.NewTombSet()
		ix.EnableMutation()
		db.liveFilter = db.tomb.Filter()
	}
	return db
}

// NewSystem builds the NDP model's functional view at cfg — the offline pass
// of cfg.Design (sampling, layout optimization, prefix elimination, the
// bit-plane store) — over a copy of the database's rows, graph and
// tombstones as they are now. Only the copy is taken under the writer lock;
// the offline pass runs on it after the lock is released, so writes wait for
// the copy and not for the pass. The model is a point-in-time copy: the
// database neither keeps nor feeds it, and writes after the call do not
// reach it. The simulated platform is built around it:
//
//	sys, err := db.NewSystem(core.DefaultSystemConfig(core.NDPETOpt))
//	m, err := sim.NewModel(sys, sim.DefaultConfig())
func (db *Database) NewSystem(cfg core.SystemConfig) (*core.System, error) {
	rs, ix, tomb, err := db.copyState()
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(rs, db.opts.Metric, ix, cfg)
	if err != nil {
		return nil, err
	}
	sys.SetTombstones(tomb)
	return sys, nil
}

// copyState copies the rows, the graph and the tombstones (nil on an
// immutable database) under the writer lock, with the calls Save and Load
// make. The graph is rebuilt under the lock too: Snapshot hands out the live
// graph's adjacency lists, not copies of them.
func (db *Database) copyState() (*rows.Slab, *hnsw.Index, *core.TombSet, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	view := db.rows.View()
	var buf bytes.Buffer
	view.WriteTo(&buf) // a bytes.Buffer write does not fail
	rs, err := rows.FromBytes(db.rows.Elem(), db.rows.Dim(), view.Len(), buf.Bytes())
	if err != nil {
		return nil, nil, nil, err
	}
	ix, err := hnsw.FromSnapshot(rs, db.index.Snapshot())
	if err != nil {
		return nil, nil, nil, err
	}
	var tomb *core.TombSet
	if db.Mutable() {
		tomb = core.NewTombSet()
		for _, id := range db.tomb.IDs() {
			tomb.Delete(id)
		}
	}
	return rs, ix, tomb, nil
}

// Len returns the number of indexed vectors, including tombstoned ones on
// a mutable database (a tombstone hides an id from results; it does not
// unassign it).
func (db *Database) Len() int { return db.rows.Len() }

// Vector returns a copy of the stored (quantized) vector with the given id,
// decoded from the row slab, and whether the id exists: the caller owns the
// slice, and writing into it changes nothing in the database. Out-of-range
// ids return (nil, false) — ids are routinely caller-controlled (request
// payloads, persisted result lists), so this entry point must not panic on
// a bad one. Tombstoned ids still resolve (the data remains until
// compaction); check Deleted to distinguish.
func (db *Database) Vector(id uint32) ([]float32, bool) {
	v := db.rows.View()
	if int(id) >= v.Len() {
		return nil, false
	}
	return v.Decode(id, make([]float32, 0, db.rows.Dim())), true
}

// Stats summarizes the database: its population and its live-mutation state.
type Stats struct {
	Vectors int
	Dim     int

	// Live-mutation state (zero unless Options.Mutable): lifetime mutation
	// totals, the current tombstone count, the pending deferred-repair
	// batch, and the journal position (zero when un-journaled).
	Mutable       bool
	Adds          uint64
	Deletes       uint64
	Updates       uint64
	RepairBatches uint64
	Tombstones    int
	PendingRepair int
	WALLastSeq    uint64
	WALReplayed   uint64
}

// Stats reports the population and the mutation and journal counters. The
// NDP model's preprocessing facts are the model's (see NewSystem).
func (db *Database) Stats() Stats {
	s := Stats{Vectors: db.Len(), Dim: db.rows.Dim()}
	if db.Mutable() {
		s.Mutable = true
		s.Adds = db.muts.writes[recAdd].Load()
		s.Deletes = db.muts.writes[recDelete].Load()
		s.Updates = db.muts.writes[recUpdate].Load()
		s.RepairBatches = db.muts.repairs.Load()
		s.Tombstones = db.tomb.Count()
		db.mu.Lock()
		s.PendingRepair = len(db.pending)
		if db.journal != nil {
			s.WALLastSeq = db.journal.LastSeq()
		}
		s.WALReplayed = db.walReplayed
		db.mu.Unlock()
	}
	return s
}

// RecallAtK computes |got ∩ truth| / |truth| for result id lists.
func RecallAtK(got, truth []uint32) float64 { return dataset.RecallAtK(got, truth) }
