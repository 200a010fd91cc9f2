package ansmet

// Live mutable databases (ROADMAP item 1): concurrent Add/Delete/Update
// under search traffic, journaled through a write-ahead log so a crash at
// any byte offset loses no acknowledged write.
//
// Concurrency model. All mutations serialize behind db.mu — there is ONE
// mutating writer at a time — while any number of searches run
// concurrently, lock-free on the hot path (the slab and the graph publish
// RCU-style snapshots; see internal/rows and internal/hnsw/mutate.go for
// the publication protocols). Deletes are tombstones: the id stays in the
// graph for routing but is filtered out of every result path (the host beam
// through db.liveFilter, the exact scan through the database's TombSet), and
// its edges are excised later by a deferred batched repair.
//
// Durability model. Every write is one mutation value taken through commit:
// checked, then — when a journal is attached (AttachWAL, or implicitly by
// LoadFile on a live snapshot) — framed, written and fsynced to the journal,
// and only then applied in memory; the fsync is the acknowledgment. Recovery
// decodes each acknowledged record back into its mutation and runs the same
// check and the same apply, so a recovered database is state-identical to one
// that applied the acknowledged ops directly. SaveFile to the journal's own
// snapshot is the compaction point: the full mutation state (vectors, graph,
// tombstones, pending repairs) is snapshotted, then the journal truncated.
//
// Determinism. Recovery must reproduce the live database exactly, so every
// state transition is a deterministic function of the operation sequence:
// insert levels hash from (seed, id) rather than drawing from a shared RNG
// stream, and the deferred edge repair runs inline when the pending-delete
// batch reaches Options.RepairEvery — a wall-clock background scheduler
// would make the graph depend on timing and break the replay ≡ reference
// property the contract harness asserts at every journal offset
// (contract_test.go).

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

// WAL record types: the kinds of mutation. Payloads are fixed little-endian
// layouts of the QUANTIZED vector (replay re-applies stored bytes; it never
// re-quantizes), written and read by mutation.appendPayload / decodeMutation:
//
//	recAdd:    id uint32 | dim × float32
//	recDelete: old uint32
//	recUpdate: old uint32 | id uint32 | dim × float32
const (
	recAdd uint8 = iota + 1
	recDelete
	recUpdate
)

// kindNames names a mutation kind in errors.
var kindNames = [...]string{recAdd: "add", recDelete: "delete", recUpdate: "update"}

// mutation is one write: what Add, Delete and Update hand to commit, and what
// a journal record decodes to.
type mutation struct {
	kind uint8     // recAdd, recDelete or recUpdate
	old  uint32    // the id it tombstones (delete, update)
	id   uint32    // the id it assigns (add, update): always the next slot
	vec  []float32 // the quantized vector stored under id
}

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
// the database: acknowledged records newer than the database's compaction
// point are replayed into it, a torn tail is truncated away, a journal that
// does not continue from that point is refused untouched (wal.ErrBadSequence),
// and every subsequent write is journaled and fsynced before it is
// acknowledged. For a database built with New the journal must have been
// produced by an identical New (same vectors, options and seed) — the usual
// pairing is LoadFile, which attaches path+".wal" itself. Attaching the
// journal that is already attached (the same file, however the path is
// spelled) is a no-op; a different one is refused. Close releases the journal.
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

// commit is what a write is, and the only place one happens: under the writer
// lock it passes the mutable/closed gate, is assigned the next slot, is checked
// against the population, is journaled (the fsync is the acknowledgment; a
// record the journal cannot take refuses the write before anything is
// applied), is applied and is counted. It returns the id the write assigned.
func (db *Database) commit(m mutation) (uint32, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.mutableLocked(); err != nil {
		return 0, err
	}
	m.id = uint32(db.rows.Len())
	if err := db.admissible(m); err != nil {
		return 0, err
	}
	if db.journal != nil {
		db.payload = m.appendPayload(db.payload[:0])
		if _, err := db.journal.Append(m.kind, db.payload); err != nil {
			return 0, fmt.Errorf("ansmet: journaling %s: %w", kindNames[m.kind], err)
		}
	}
	if err := db.apply(m); err != nil {
		return 0, err
	}
	return m.id, nil
}

// admissible checks a mutation against the population, for commit and for
// replay alike: a delete or update must name an assigned, untombstoned id.
func (db *Database) admissible(m mutation) error {
	switch {
	case m.kind == recAdd:
		return nil
	case int(m.old) >= db.rows.Len():
		return fmt.Errorf("%w (id=%d, len=%d)", ErrUnknownID, m.old, db.rows.Len())
	case db.tomb.IsDeleted(m.old):
		return fmt.Errorf("%w (id=%d)", ErrAlreadyDeleted, m.old)
	}
	return nil
}

// apply performs an admissible mutation in memory and counts it; an update
// adds before it deletes, so there is no moment at which neither version is
// searchable.
func (db *Database) apply(m mutation) error {
	if m.kind != recDelete {
		if err := db.applyAdd(m.id, m.vec); err != nil {
			return err
		}
	}
	if m.kind != recAdd {
		db.applyDelete(m.old)
	}
	db.muts.writes[m.kind].Add(1)
	return nil
}

// Add ingests one vector (quantized to the element type), links it into the
// index, and returns its id. On a journaled database the write is acknowledged
// — fsynced: a crash at any later byte offset cannot lose it — before Add
// returns, and a write the journal refuses is not applied. Safe to call
// concurrently with searches; writes serialize behind the writer lock.
func (db *Database) Add(v []float32) (uint32, error) {
	qv, err := db.checkVector(v)
	if err != nil {
		return 0, err
	}
	return db.commit(mutation{kind: recAdd, vec: qv})
}

// Delete tombstones id: it disappears from all subsequent search results
// (searches already in flight may still return it — deletion orders
// against searches that start after Delete returns) and its graph edges
// are excised by the next deferred repair batch. Acknowledged like Add.
func (db *Database) Delete(id uint32) error {
	_, err := db.commit(mutation{kind: recDelete, old: id})
	return err
}

// Update replaces the vector stored under id: the new value is ingested
// under a fresh id (returned) and the old id is tombstoned, as one
// mutation and one journaled record — recovery applies both halves or
// neither. Acknowledged like Add.
func (db *Database) Update(id uint32, v []float32) (uint32, error) {
	qv, err := db.checkVector(v)
	if err != nil {
		return 0, err
	}
	return db.commit(mutation{kind: recUpdate, old: id, vec: qv})
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

// ---- Apply functions (shared by commit and WAL replay, through apply) -----

// applyAdd performs the in-memory half of an add: the row into the slab, then
// the graph node — in that order: a searcher that can reach the id through
// its graph view is guaranteed to find its row in the slab view it pins
// after.
func (db *Database) applyAdd(id uint32, qv []float32) error {
	rid, err := db.rows.Append(qv)
	if err != nil {
		return fmt.Errorf("ansmet: appending row: %w", err)
	}
	if rid != id {
		return fmt.Errorf("ansmet: slab assigned id %d, expected %d", rid, id)
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

// applyRecord replays one acknowledged record: decoded back into its mutation,
// then the check and the apply commit ran. Its one test of its own is that the
// record assigns the next slot; that or any refusal means the journal does not
// belong to this snapshot and aborts recovery (wal.Open fails rather than
// truncating).
func (db *Database) applyRecord(r wal.Record) error {
	m, err := decodeMutation(r.Type, r.Payload, db.rows.Dim())
	if err != nil {
		return err
	}
	if want := uint32(db.rows.Len()); m.kind != recDelete && m.id != want {
		return fmt.Errorf("%s assigns id %d, replay state expects %d", kindNames[m.kind], m.id, want)
	}
	if err := db.admissible(m); err != nil {
		return err
	}
	if err := db.apply(m); err != nil {
		return err
	}
	db.walReplayed++
	return nil
}

// ---- Payload codec -------------------------------------------------------

// appendPayload appends m's journal payload (the layouts at recAdd) to p.
func (m mutation) appendPayload(p []byte) []byte {
	if m.kind != recAdd {
		p = binary.LittleEndian.AppendUint32(p, m.old)
	}
	if m.kind != recDelete {
		p = binary.LittleEndian.AppendUint32(p, m.id)
		p, _ = Float32.AppendRow(p, m.vec) // IEEE bits, little-endian
	}
	return p
}

// decodeMutation is appendPayload's inverse on a database of dimension dim.
// Journal bytes are disk-sourced and must clear checkVector's bar, with its
// error classes: a vector of another dimension, a non-finite component.
func decodeMutation(kind uint8, p []byte, dim int) (mutation, error) {
	m := mutation{kind: kind}
	if kind < recAdd || kind > recUpdate {
		return m, fmt.Errorf("unknown record type %d", kind)
	}
	ids := 4
	if kind == recUpdate {
		ids = 8
	}
	switch vecBytes := len(p) - ids; {
	case vecBytes < 0, kind == recDelete && vecBytes != 0:
		return m, fmt.Errorf("%s payload is %d bytes, want %d", kindNames[kind], len(p), ids)
	case kind != recDelete && vecBytes != 4*dim:
		return m, fmt.Errorf("%w (%s payload carries %d vector bytes, want %d)", ErrDimension, kindNames[kind], vecBytes, 4*dim)
	}
	if kind != recAdd {
		m.old, p = binary.LittleEndian.Uint32(p), p[4:]
	}
	if kind == recDelete {
		return m, nil
	}
	m.id, p = binary.LittleEndian.Uint32(p), p[4:]
	m.vec = Float32.DecodeRow(p, make([]float32, 0, dim))
	if d := nonFinite(m.vec); d >= 0 {
		return m, fmt.Errorf("%w (component %d is %v)", ErrBadVector, d, m.vec[d])
	}
	return m, nil
}
