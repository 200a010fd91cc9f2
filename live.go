package ansmet

// Live mutable databases (ROADMAP item 1): concurrent Add/Delete/Update
// under search traffic, journaled through a write-ahead log so a crash at
// any byte offset loses no acknowledged write.
//
// Concurrency model. All mutations serialize behind db.mu — there is ONE
// mutating writer at a time — while any number of searches run
// concurrently, lock-free on the hot path (the slab, the graph and — once a
// route has built the NDP model — its store publish RCU-style snapshots; see
// internal/rows, internal/hnsw/mutate.go and internal/core/mutable.go for
// the publication protocols). Deletes are tombstones: the id stays in the
// graph for routing but is filtered out of every result path (beam searches
// through db.liveFilter, the exact and tiered scans through the database's
// TombSet), and its edges are excised later by a deferred batched repair.
//
// Durability model. When a journal is attached (AttachWAL, or implicitly
// by LoadFile on a live snapshot), every mutation is framed, written and
// fsynced to the journal BEFORE it is applied in memory; the fsync is the
// acknowledgment. Recovery replays the journal's valid record prefix
// through the same apply functions the live path uses, so a recovered
// database is state-identical to one that applied the acknowledged ops
// directly. SaveFile is the compaction point: it snapshots the full
// mutation state (vectors, graph, tombstones, pending repairs) and then
// truncates the journal.
//
// Determinism. Recovery must reproduce the live database exactly, so every
// state transition is a deterministic function of the operation sequence:
// insert levels hash from (seed, id) rather than drawing from a shared RNG
// stream, and the deferred edge repair runs inline when the pending-delete
// batch reaches Options.RepairEvery — a wall-clock background scheduler
// would make the graph depend on timing and break the replay ≡ reference
// property the chaos suite asserts (ansmet-chaos -scenario mutate).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"

	"ansmet/internal/wal"
)

// Typed mutation errors, matched with errors.Is.
var (
	// ErrNotMutable rejects mutation on a database built without
	// Options.Mutable.
	ErrNotMutable = errors.New("ansmet: database is not mutable (set Options.Mutable)")
	// ErrUnknownID rejects a mutation naming an id the database never
	// assigned.
	ErrUnknownID = errors.New("ansmet: unknown vector id")
	// ErrAlreadyDeleted rejects deleting (or updating) a tombstoned id.
	ErrAlreadyDeleted = errors.New("ansmet: vector already deleted")
	// ErrBadVector rejects ingesting vectors with NaN or Inf components.
	ErrBadVector = errors.New("ansmet: vector has non-finite component")
	// ErrDatabaseClosed rejects mutation after Close.
	ErrDatabaseClosed = errors.New("ansmet: database is closed")
)

// WAL record types. Payloads are fixed little-endian layouts of the
// QUANTIZED vector (replay re-applies stored bytes; it never re-quantizes):
//
//	recAdd:    id uint32 | dim × float32
//	recDelete: id uint32
//	recUpdate: oldID uint32 | newID uint32 | dim × float32
const (
	recAdd uint8 = iota + 1
	recDelete
	recUpdate
)

// defaultRepairEvery is the pending-delete batch size that triggers the
// deferred graph repair when Options.RepairEvery is zero.
const defaultRepairEvery = 64

// IsMutationError reports whether err is one of the typed mutation-input
// errors a serving layer should map to a client fault (HTTP 4xx).
func IsMutationError(err error) bool {
	return errors.Is(err, ErrNotMutable) || errors.Is(err, ErrUnknownID) ||
		errors.Is(err, ErrAlreadyDeleted) || errors.Is(err, ErrBadVector) ||
		errors.Is(err, ErrDimension)
}

// Mutable reports whether the database accepts Add/Delete/Update.
func (db *Database) Mutable() bool { return db.tomb != nil }

// repairEvery resolves the configured pending-delete batch size; negative
// disables automatic repair (Maintain still forces one).
func (db *Database) repairEvery() int {
	switch {
	case db.opts.RepairEvery > 0:
		return db.opts.RepairEvery
	case db.opts.RepairEvery < 0:
		return math.MaxInt
	default:
		return defaultRepairEvery
	}
}

// checkVector validates and quantizes a vector for ingestion. A finite
// input quantizes to a finite value of the element type (Quantize
// saturates), so what it returns the slab stores.
func (db *Database) checkVector(v []float32) ([]float32, error) {
	if len(v) != db.rows.Dim() {
		return nil, fmt.Errorf("%w (got %d, want %d)", ErrDimension, len(v), db.rows.Dim())
	}
	if d := nonFinite(v); d >= 0 {
		return nil, fmt.Errorf("%w (component %d is %v)", ErrBadVector, d, v[d])
	}
	return quantizeInto(make([]float32, len(v)), v, db.opts.Elem), nil
}

// mutableLocked gates a mutation under db.mu.
func (db *Database) mutableLocked() error {
	if !db.Mutable() {
		return ErrNotMutable
	}
	if db.closed {
		return ErrDatabaseClosed
	}
	return nil
}

// AttachWAL opens (creating if absent) the journal at path and binds it to
// the database: existing acknowledged records newer than the database's
// compaction point are replayed into it, a torn tail is truncated away,
// and every subsequent mutation is journaled and fsynced before it is
// acknowledged. For a database built with New the journal must have been
// produced by an identical New (same vectors, options and seed) — the
// usual recovery pairing is LoadFile, which attaches path+".wal"
// automatically. Attaching the journal that is already attached (the same
// file, however the path is spelled) is a no-op, so a caller may name
// LoadFile's default explicitly; a different one is refused. Close releases
// the journal.
func (db *Database) AttachWAL(path string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.mutableLocked(); err != nil {
		return err
	}
	if db.journal != nil {
		if sameFile(path, db.journal.Path()) {
			return nil
		}
		return fmt.Errorf("ansmet: cannot attach journal %s: %s is already attached", path, db.journal.Path())
	}
	l, err := wal.Open(path, db.walBase, db.applyRecord)
	if err != nil {
		return err
	}
	db.journal = l
	return nil
}

// sameFile reports whether two paths name one existing file.
func sameFile(a, b string) bool {
	ai, err := os.Stat(a)
	if err != nil {
		return false
	}
	bi, err := os.Stat(b)
	return err == nil && os.SameFile(ai, bi)
}

// WALPath returns the attached journal's path ("" when un-journaled).
func (db *Database) WALPath() string {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.journal == nil {
		return ""
	}
	return db.journal.Path()
}

// Close releases the database's journal (if any). Searches remain valid;
// further mutations fail with ErrDatabaseClosed. Idempotent.
func (db *Database) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	if db.journal != nil {
		return db.journal.Close()
	}
	return nil
}

// Add ingests one vector (quantized to the element type), links it into
// the index, and returns its id. On a journaled database the write is
// durable before Add returns: a crash at any later byte offset cannot lose
// it. Safe to call concurrently with searches; concurrent mutations
// serialize behind the writer lock.
func (db *Database) Add(v []float32) (uint32, error) {
	qv, err := db.checkVector(v)
	if err != nil {
		return 0, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.mutableLocked(); err != nil {
		return 0, err
	}
	id := uint32(db.rows.Len())
	if db.journal != nil {
		if _, err := db.journal.Append(recAdd, encodeAddPayload(id, qv)); err != nil {
			return 0, fmt.Errorf("ansmet: journaling add: %w", err)
		}
	}
	if err := db.applyAdd(id, qv); err != nil {
		return 0, err
	}
	db.muts.adds.Add(1)
	return id, nil
}

// Delete tombstones id: it disappears from all subsequent search results
// (searches already in flight may still return it — deletion orders
// against searches that start after Delete returns) and its graph edges
// are excised by the next deferred repair batch. On a journaled database
// the delete is durable before Delete returns.
func (db *Database) Delete(id uint32) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.mutableLocked(); err != nil {
		return err
	}
	if int(id) >= db.rows.Len() {
		return fmt.Errorf("%w (id=%d, len=%d)", ErrUnknownID, id, db.rows.Len())
	}
	if db.tomb.IsDeleted(id) {
		return fmt.Errorf("%w (id=%d)", ErrAlreadyDeleted, id)
	}
	if db.journal != nil {
		var p [4]byte
		binary.LittleEndian.PutUint32(p[:], id)
		if _, err := db.journal.Append(recDelete, p[:]); err != nil {
			return fmt.Errorf("ansmet: journaling delete: %w", err)
		}
	}
	db.applyDelete(id)
	db.muts.deletes.Add(1)
	return nil
}

// Update replaces the vector stored under id: the new value is ingested
// under a fresh id (returned) and the old id is tombstoned, as one
// journaled record — recovery applies both halves or neither. There is no
// moment at which neither version is searchable.
func (db *Database) Update(id uint32, v []float32) (uint32, error) {
	qv, err := db.checkVector(v)
	if err != nil {
		return 0, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.mutableLocked(); err != nil {
		return 0, err
	}
	if int(id) >= db.rows.Len() {
		return 0, fmt.Errorf("%w (id=%d, len=%d)", ErrUnknownID, id, db.rows.Len())
	}
	if db.tomb.IsDeleted(id) {
		return 0, fmt.Errorf("%w (id=%d)", ErrAlreadyDeleted, id)
	}
	newID := uint32(db.rows.Len())
	if db.journal != nil {
		if _, err := db.journal.Append(recUpdate, encodeUpdatePayload(id, newID, qv)); err != nil {
			return 0, fmt.Errorf("ansmet: journaling update: %w", err)
		}
	}
	if err := db.applyAdd(newID, qv); err != nil {
		return 0, err
	}
	db.applyDelete(id)
	db.muts.updates.Add(1)
	return newID, nil
}

// Deleted reports whether id is tombstoned. Lock-free; always false on an
// immutable database.
func (db *Database) Deleted(id uint32) bool {
	return db.Mutable() && db.tomb.IsDeleted(id)
}

// Tombstones returns the number of tombstoned ids (0 when immutable).
func (db *Database) Tombstones() int {
	if !db.Mutable() {
		return 0
	}
	return db.tomb.Count()
}

// Maintain forces the deferred graph repair of all pending tombstones now,
// instead of waiting for the batch to reach Options.RepairEvery. Safe
// under concurrent search traffic.
func (db *Database) Maintain() {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.Mutable() {
		db.repairLocked()
	}
}

// ---- Apply functions (shared by the live path and WAL replay) -----------

// applyAdd performs the in-memory half of an add: the row into the slab, the
// bit-plane slot if an NDP model is attached (the caller holds db.mu, so that
// cannot change midway: see buildModel), the graph node — in that order: a
// searcher that can reach the id through its graph view is guaranteed to find
// its row in the slab view and its data in the store snapshot it pins after.
func (db *Database) applyAdd(id uint32, qv []float32) error {
	rid, err := db.rows.Append(qv)
	if err != nil {
		return fmt.Errorf("ansmet: appending row: %w", err)
	}
	if rid != id {
		return fmt.Errorf("ansmet: slab assigned id %d, expected %d", rid, id)
	}
	if sys := db.model.Load(); sys != nil && sys.Store != nil {
		if err := sys.Store.AppendVector(id, qv); err != nil {
			return fmt.Errorf("ansmet: appending vector: %w", err)
		}
	}
	if gid := db.index.Insert(); gid != id {
		return fmt.Errorf("ansmet: index assigned id %d, expected %d", gid, id)
	}
	return nil
}

// applyDelete performs the in-memory half of a delete: tombstone, then
// queue the id for the deferred edge repair, running the batch when it
// reaches the configured size (deterministically — see the package
// comment).
func (db *Database) applyDelete(id uint32) {
	db.tomb.Delete(id)
	db.pending = append(db.pending, id)
	if len(db.pending) >= db.repairEvery() {
		db.repairLocked()
	}
}

// repairLocked excises the pending tombstones' edges from the graph
// (cross-connecting each hole's surviving neighborhood) under the writer
// lock; searches run concurrently against stripe-locked list swaps.
func (db *Database) repairLocked() {
	if len(db.pending) == 0 {
		return
	}
	db.index.Repair(db.pending, db.liveFilter)
	db.pending = db.pending[:0]
	db.muts.repairs.Add(1)
}

// applyRecord replays one journal record through the same apply functions
// the live path uses. Any inconsistency — wrong dimension, an id that does
// not line up with the replay state — means the journal does not belong to
// this snapshot and aborts recovery (wal.Open turns the error into a
// failed open rather than truncating).
func (db *Database) applyRecord(r wal.Record) error {
	switch r.Type {
	case recAdd:
		id, qv, err := decodeAddPayload(r.Payload, db.rows.Dim())
		if err != nil {
			return err
		}
		if want := uint32(db.rows.Len()); id != want {
			return fmt.Errorf("add names id %d, replay state expects %d", id, want)
		}
		if err := db.applyAdd(id, qv); err != nil {
			return err
		}
		db.muts.adds.Add(1)
	case recDelete:
		if len(r.Payload) != 4 {
			return fmt.Errorf("delete payload is %d bytes, want 4", len(r.Payload))
		}
		id := binary.LittleEndian.Uint32(r.Payload)
		if int(id) >= db.rows.Len() {
			return fmt.Errorf("delete names id %d beyond replay state (%d vectors)", id, db.rows.Len())
		}
		if db.tomb.IsDeleted(id) {
			return fmt.Errorf("delete names already-deleted id %d", id)
		}
		db.applyDelete(id)
		db.muts.deletes.Add(1)
	case recUpdate:
		oldID, newID, qv, err := decodeUpdatePayload(r.Payload, db.rows.Dim())
		if err != nil {
			return err
		}
		if want := uint32(db.rows.Len()); newID != want {
			return fmt.Errorf("update names new id %d, replay state expects %d", newID, want)
		}
		if int(oldID) >= db.rows.Len() {
			return fmt.Errorf("update names old id %d beyond replay state", oldID)
		}
		if db.tomb.IsDeleted(oldID) {
			return fmt.Errorf("update names already-deleted id %d", oldID)
		}
		if err := db.applyAdd(newID, qv); err != nil {
			return err
		}
		db.applyDelete(oldID)
		db.muts.updates.Add(1)
	default:
		return fmt.Errorf("unknown record type %d", r.Type)
	}
	db.walReplayed++
	return nil
}

// ---- Payload codecs ------------------------------------------------------

func encodeAddPayload(id uint32, qv []float32) []byte {
	p := make([]byte, 4+4*len(qv))
	binary.LittleEndian.PutUint32(p, id)
	for d, x := range qv {
		binary.LittleEndian.PutUint32(p[4+4*d:], math.Float32bits(x))
	}
	return p
}

func decodeAddPayload(p []byte, dim int) (uint32, []float32, error) {
	if len(p) != 4+4*dim {
		return 0, nil, fmt.Errorf("add payload is %d bytes, want %d (dim %d)", len(p), 4+4*dim, dim)
	}
	id := binary.LittleEndian.Uint32(p)
	qv, err := decodeVectorPayload(p[4:], dim)
	return id, qv, err
}

func encodeUpdatePayload(oldID, newID uint32, qv []float32) []byte {
	p := make([]byte, 8+4*len(qv))
	binary.LittleEndian.PutUint32(p, oldID)
	binary.LittleEndian.PutUint32(p[4:], newID)
	for d, x := range qv {
		binary.LittleEndian.PutUint32(p[8+4*d:], math.Float32bits(x))
	}
	return p
}

func decodeUpdatePayload(p []byte, dim int) (oldID, newID uint32, qv []float32, err error) {
	if len(p) != 8+4*dim {
		return 0, 0, nil, fmt.Errorf("update payload is %d bytes, want %d (dim %d)", len(p), 8+4*dim, dim)
	}
	oldID = binary.LittleEndian.Uint32(p)
	newID = binary.LittleEndian.Uint32(p[4:])
	qv, err = decodeVectorPayload(p[8:], dim)
	return oldID, newID, qv, err
}

// decodeVectorPayload rejects non-finite components: journal bytes are
// disk-sourced and must clear the same bar live ingestion does.
func decodeVectorPayload(p []byte, dim int) ([]float32, error) {
	qv := make([]float32, dim)
	for d := range qv {
		qv[d] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*d:]))
	}
	if d := nonFinite(qv); d >= 0 {
		return nil, fmt.Errorf("vector component %d is %v", d, qv[d])
	}
	return qv, nil
}
