package ansmet

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"ansmet/internal/core"
	"ansmet/internal/hnsw"
	"ansmet/internal/rows"
	"ansmet/internal/vecmath"
)

// The snapshot format. A file is a raw header naming the version, a gob
// stream (dbSnapshot), in v4 the row section, and the integrity footer over
// everything before it:
//
//	v3  "ANSMETDB3\n" | gob(dbSnapshot with Vectors)              | footer
//	v4  "ANSMETDB4\n" | gob(dbSnapshot with N, Dim) | rows, raw   | footer
//
// v4's row section is the slab as it is in memory: N rows of Dim elements
// in the element type's own bytes (internal/rows), id order —
// N·Dim·Elem.Bytes() bytes exactly. Save writes v4 only; Load reads both
// (v1/v2, without a checksum, are rejected).
const (
	snapshotMagicV3 = "ansmet-db-v3"
	snapshotMagic   = "ansmet-db-v4"
)

// snapshotHeader is a raw byte prefix written before the gob stream, so
// Load can reject non-ansmet files before handing attacker-controlled
// bytes to the gob decoder.
var (
	snapshotHeader   = []byte("ANSMETDB4\n")
	snapshotHeaderV3 = []byte("ANSMETDB3\n")
)

// snapshotFooterMagic opens the fixed-size trailer appended after the
// payload: footer magic (10 bytes) + uint64 LE payload length + uint32 LE
// CRC32C (Castagnoli) over the payload (header + gob stream + row section).
// A torn write truncates the footer or leaves a length/CRC that no longer
// matches, so Load detects it before decoding a single gob byte.
var snapshotFooterMagic = []byte("ANSMETCRC\n")

const snapshotFooterLen = 10 + 8 + 4

// Typed snapshot-corruption errors, matched with errors.Is. Load
// distinguishes the three ways a file can be bad so operators can tell a
// torn write (truncated: retry from the previous snapshot) from bit rot
// (checksum: the media lied) from a file that was never a snapshot at all.
var (
	// ErrSnapshotBadMagic reports a file that is not an ansmet snapshot or
	// uses an unsupported format version.
	ErrSnapshotBadMagic = errors.New("ansmet: not an ansmet-db-v3/v4 snapshot")
	// ErrSnapshotTruncated reports a snapshot cut short — the integrity
	// footer is missing or its recorded length disagrees with the data.
	ErrSnapshotTruncated = errors.New("ansmet: truncated snapshot")
	// ErrSnapshotChecksum reports payload bytes that fail the CRC32C check.
	ErrSnapshotChecksum = errors.New("ansmet: snapshot checksum mismatch")
	// ErrSnapshotRows reports a checksum-valid snapshot whose rows cannot be
	// the database's: a row section that is not N·Dim·bytes long or holds a
	// non-finite bit pattern, (v3) a value the element type does not hold.
	ErrSnapshotRows = errors.New("ansmet: snapshot rows are invalid")
)

// castagnoli is the CRC32C table (same polynomial iSCSI and ext4 use;
// hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// dbSnapshot is the gob-encoded part of a snapshot: everything but the rows
// (v4), or everything (v3). The NDP model is not in the file: it is a
// deterministic function of rows, graph and seed (paper Table 4's offline
// pass) that a loaded database derives again when a route asks for it.
// Design is the format's: Save writes NDP-ETOpt, the one design a database
// has, so that older readers still load the file, and Load ignores it.
type dbSnapshot struct {
	Magic  string
	Metric Metric
	Elem   ElemType
	Design Design
	Seed   uint64

	// N and Dim shape v4's row section; zero in a v3 stream, which carries
	// the rows as Vectors (float32 whatever the element type; never written).
	N, Dim  int
	Vectors [][]float32
	Graph   *hnsw.Snapshot

	// Live-mutation state (zero values on immutable databases; gob decodes
	// pre-mutation snapshots to exactly those zero values, so old files
	// keep loading). Tombs is the deletion bitmap, Pending the tombstones
	// not yet folded into the graph by the deferred repair — restored so a
	// loaded database's repair batches line up with a never-snapshotted
	// one's — and WALSeq the journal compaction point: records with seq <=
	// WALSeq are folded into this snapshot and skipped at replay.
	Live    bool
	Tombs   []uint32
	Pending []uint32
	WALSeq  uint64
	// RepairEvery preserves the deferred-repair batching knob: replaying the
	// journal with a different threshold than the database that wrote it
	// would repair on different op boundaries and recover a different (if
	// equally valid) graph, breaking replay determinism.
	RepairEvery int
}

// crcWriter tees writes into a CRC32C accumulator and counts bytes.
type crcWriter struct {
	w   io.Writer
	crc hash.Hash32
	n   uint64
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc.Write(p[:n])
	cw.n += uint64(n)
	return n, err
}

// Save serializes the database (index graph + options + live mutation
// state, then the rows) to w in the v4 format: raw header, gob stream, raw
// row section, then the CRC32C integrity footer Load verifies before
// decoding. Save performs no atomicity of its own — use SaveFile for
// crash-safe persistence to a path. On a mutable database Save takes the
// writer lock, so in-flight mutations finish and the snapshot is consistent;
// it does NOT compact an attached journal (only SaveFile holds the lock
// across both steps).
func (db *Database) Save(w io.Writer) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.saveLocked(w)
}

// saveLocked is Save's body; callers hold db.mu (a no-op lock on an
// immutable database).
func (db *Database) saveLocked(w io.Writer) error {
	view := db.rows.View()
	snap := dbSnapshot{
		Magic:  snapshotMagic,
		Metric: db.opts.Metric,
		Elem:   db.opts.Elem,
		Design: core.NDPETOpt,
		Seed:   db.opts.Seed,
		N:      view.Len(),
		Dim:    db.rows.Dim(),
		Graph:  db.index.Snapshot(),
	}
	if db.Mutable() {
		snap.Live = true
		snap.Tombs = db.tomb.IDs()
		snap.Pending = db.pending
		if db.journal != nil {
			snap.WALSeq = db.journal.LastSeq()
		}
		snap.RepairEvery = db.opts.RepairEvery
	}
	return writeSnapshot(w, &snap, view)
}

// writeSnapshot writes the v4 file image of snap and its rows (a rows.View,
// which writes itself chunk by chunk): raw header, gob stream, row section,
// CRC32C integrity footer.
func writeSnapshot(w io.Writer, snap *dbSnapshot, rowSection io.WriterTo) error {
	return writeFramed(w, "snapshot", snapshotHeader, snap, rowSection)
}

// writeFramed is the framing snapshots and the cluster manifest share
// (verifyIntegrity reads it): raw header, gob stream of v, an optional raw
// section, the length + CRC32C footer. what names the file in errors.
func writeFramed(w io.Writer, what string, header []byte, v any, section io.WriterTo) error {
	cw := &crcWriter{w: w, crc: crc32.New(castagnoli)}
	if _, err := cw.Write(header); err != nil {
		return fmt.Errorf("ansmet: writing %s header: %w", what, err)
	}
	if err := gob.NewEncoder(cw).Encode(v); err != nil {
		return fmt.Errorf("ansmet: encoding %s: %w", what, err)
	}
	if section != nil {
		if _, err := section.WriteTo(cw); err != nil {
			return fmt.Errorf("ansmet: writing %s rows: %w", what, err)
		}
	}
	footer := make([]byte, snapshotFooterLen)
	copy(footer, snapshotFooterMagic)
	binary.LittleEndian.PutUint64(footer[10:], cw.n)
	binary.LittleEndian.PutUint32(footer[18:], cw.crc.Sum32())
	if _, err := w.Write(footer); err != nil {
		return fmt.Errorf("ansmet: writing %s footer: %w", what, err)
	}
	return nil
}

// saveFileTestHook, when non-nil, runs after the temp file is durably
// written but before the rename; tests use it to simulate a crash at the
// most dangerous moment and assert the destination is untouched.
var saveFileTestHook func(tmpPath string) error

// writeFileAtomic persists whatever write produces to path crash-safely:
// the bytes go to a temporary file in the same directory, are fsynced, and
// only then atomically renamed over path. A crash at any point leaves
// either the complete old file or the complete new file — never a torn
// mix — and on error the temporary file is removed. Shared by the
// Database snapshot, the per-shard cluster snapshots, and the cluster
// manifest.
func writeFileAtomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ansmet-snap-*")
	if err != nil {
		return fmt.Errorf("ansmet: creating temp snapshot: %w", err)
	}
	tmpPath := tmp.Name()
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmpPath)
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("ansmet: syncing temp snapshot: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("ansmet: closing temp snapshot: %w", err)
	}
	if saveFileTestHook != nil {
		if err = saveFileTestHook(tmpPath); err != nil {
			return err
		}
	}
	if err = os.Rename(tmpPath, path); err != nil {
		return fmt.Errorf("ansmet: renaming snapshot into place: %w", err)
	}
	// Make the rename itself durable (best-effort: some filesystems don't
	// support fsync on directories).
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// SaveFile persists the database to path crash-safely via writeFileAtomic.
// When the attached journal is the one LoadFile(path) would open, SaveFile is
// the compaction commit point: the writer lock is held across snapshot write
// AND journal truncation, so no acknowledged mutation can land between
// them, and a crash anywhere in the sequence leaves either the old
// snapshot plus a journal that replays over it, or the new snapshot plus
// a journal whose folded records are skipped by their sequence numbers.
// To any other path SaveFile is a backup: the same consistent snapshot, the
// journal left alone — it still pairs with the snapshot it was opened against.
func (db *Database) SaveFile(path string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := writeFileAtomic(path, db.saveLocked); err != nil {
		return err
	}
	if db.journal != nil && !db.closed && sameFile(WALName(path), db.journal.Path()) {
		if err := db.journal.Reset(); err != nil {
			return fmt.Errorf("ansmet: compacting journal: %w", err)
		}
	}
	return nil
}

// WALName returns the journal path paired with a snapshot path — the file
// LoadFile opens (creating it if absent) when the snapshot is live.
func WALName(snapshotPath string) string { return snapshotPath + ".wal" }

// LoadFile reconstructs a database previously written with SaveFile (or
// Save to a file). design must be nil: a database has no design point of its
// own, and a model at another one is built over it with core.NewSystem (see
// Database.System). When the snapshot is live (Options.Mutable was set), the
// paired journal at WALName(path) is opened — created empty if absent — its
// acknowledged records are replayed, any torn tail is truncated, and the
// journal stays attached for subsequent mutations; call Close to release it.
// A journal that does not continue this snapshot (wal.ErrBadSequence) is
// refused, untouched.
func LoadFile(path string, design *Design) (*Database, error) {
	if design != nil {
		return nil, fmt.Errorf("ansmet: LoadFile takes no design (got %v); build a model at it over the database with core.NewSystem", *design)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ansmet: opening snapshot: %w", err)
	}
	db, err := Load(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	if db.Mutable() {
		if err := db.AttachWAL(WALName(path)); err != nil {
			return nil, fmt.Errorf("ansmet: recovering journal: %w", err)
		}
	}
	return db, nil
}

// decodeSnapshot gob-decodes the head of a verified payload with a recover
// guard (a hostile payload must surface as an error, never a panic) and
// returns what follows the stream: v4's row section.
func decodeSnapshot(payload []byte) (snap dbSnapshot, rest []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("ansmet: malformed snapshot: %v", p)
		}
	}()
	// A bytes.Reader is an io.ByteReader, so gob reads exactly the stream.
	r := bytes.NewReader(payload)
	err = gob.NewDecoder(r).Decode(&snap)
	return snap, payload[len(payload)-r.Len():], err
}

// snapshotRows builds the slab of a decoded snapshot: v4 copies the raw row
// section (its length and bit patterns checked), v3 packs the gob-decoded
// values, refusing one the element type does not hold. Either failure is an
// ErrSnapshotRows naming the field.
func snapshotRows(version int, snap *dbSnapshot, rest []byte) (rs *rows.Slab, err error) {
	if version == 4 {
		rs, err = rows.FromBytes(snap.Elem, snap.Dim, snap.N, rest)
	} else {
		rs, err = rows.Pack(snap.Vectors, snap.Elem)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotRows, err)
	}
	return rs, nil
}

// validateSnapshot bounds-checks every decoded field but the rows (see
// snapshotRows) before the snapshot is acted on: a corrupt or crafted file
// must fail here, not crash deep inside preprocessing.
func validateSnapshot(version int, snap *dbSnapshot) error {
	if want := map[int]string{3: snapshotMagicV3, 4: snapshotMagic}[version]; snap.Magic != want {
		return fmt.Errorf("%w: unsupported snapshot version %q (want %q)",
			ErrSnapshotBadMagic, snap.Magic, want)
	}
	if snap.Metric < vecmath.L2 || snap.Metric > vecmath.Cosine {
		return fmt.Errorf("ansmet: snapshot has invalid metric %d", int(snap.Metric))
	}
	if snap.Elem < vecmath.Uint8 || snap.Elem > vecmath.Float32 {
		return fmt.Errorf("ansmet: snapshot has invalid element type %d", int(snap.Elem))
	}
	if snap.Graph == nil {
		return fmt.Errorf("ansmet: snapshot has no index graph")
	}
	if !snap.Live && (len(snap.Tombs) > 0 || len(snap.Pending) > 0 || snap.WALSeq != 0 || snap.RepairEvery != 0) {
		return fmt.Errorf("ansmet: snapshot has mutation state but is not live")
	}
	return nil
}

// validateTombstones checks a live snapshot's deletion state against its n
// rows.
func validateTombstones(snap *dbSnapshot, n int) error {
	seen := make(map[uint32]bool, len(snap.Tombs))
	for _, id := range snap.Tombs {
		if int(id) >= n {
			return fmt.Errorf("ansmet: snapshot tombstones id %d beyond %d vectors", id, n)
		}
		if seen[id] {
			return fmt.Errorf("ansmet: snapshot tombstones id %d twice", id)
		}
		seen[id] = true
	}
	for _, id := range snap.Pending {
		if !seen[id] {
			return fmt.Errorf("ansmet: snapshot queues untombstoned id %d for repair", id)
		}
	}
	return nil
}

// verifySnapshotBytes checks the raw header and integrity footer of a
// complete snapshot image and returns its format version (3 or 4) and the
// payload (the bytes between header and footer). Every failure is one of the
// typed corruption errors.
func verifySnapshotBytes(data []byte) (version int, payload []byte, err error) {
	version, header := 4, snapshotHeader
	if bytes.HasPrefix(data, snapshotHeaderV3) {
		version, header = 3, snapshotHeaderV3
	}
	payload, err = verifyIntegrity(data, header)
	return version, payload, err
}

// verifyIntegrity is verifySnapshotBytes generalized over the raw header,
// shared with the cluster manifest format.
func verifyIntegrity(data, header []byte) ([]byte, error) {
	if len(data) < len(header) {
		if bytes.HasPrefix(header, data) {
			// A prefix of a valid header: torn at the very start.
			return nil, fmt.Errorf("%w: %d bytes is shorter than the header", ErrSnapshotTruncated, len(data))
		}
		return nil, fmt.Errorf("%w (short header)", ErrSnapshotBadMagic)
	}
	if !bytes.Equal(data[:len(header)], header) {
		return nil, fmt.Errorf("%w (bad header)", ErrSnapshotBadMagic)
	}
	if len(data) < len(header)+snapshotFooterLen {
		return nil, fmt.Errorf("%w: no integrity footer (torn write?)", ErrSnapshotTruncated)
	}
	footer := data[len(data)-snapshotFooterLen:]
	if !bytes.Equal(footer[:len(snapshotFooterMagic)], snapshotFooterMagic) {
		return nil, fmt.Errorf("%w: integrity footer missing or damaged (torn write?)", ErrSnapshotTruncated)
	}
	payload := data[:len(data)-snapshotFooterLen]
	wantLen := binary.LittleEndian.Uint64(footer[10:])
	if wantLen != uint64(len(payload)) {
		return nil, fmt.Errorf("%w: footer records %d payload bytes, file has %d",
			ErrSnapshotTruncated, wantLen, len(payload))
	}
	wantCRC := binary.LittleEndian.Uint32(footer[18:])
	if got := crc32.Checksum(payload, castagnoli); got != wantCRC {
		return nil, fmt.Errorf("%w: crc32c %08x, footer says %08x", ErrSnapshotChecksum, got, wantCRC)
	}
	return payload[len(header):], nil
}

// Load reconstructs a database previously written with Save: rows and graph
// as saved. The NDP model is not in the file and is not built here (see
// Database.System); the persisted Design is ignored, and every other field
// is restored.
//
// Load is hardened against corrupt or hostile input: the raw header and
// format version are checked first, the CRC32C footer is verified over the
// whole payload BEFORE any gob byte is decoded (so a torn write or flipped
// bit is a typed error — ErrSnapshotTruncated, ErrSnapshotChecksum,
// ErrSnapshotBadMagic — and can never yield a silently wrong database),
// every decoded field is bounds-checked, the row section must be exactly the
// rows the header describes (ErrSnapshotRows), and graph reconstruction
// validates the topology — the same checks for both format versions.
// Malformed files return errors, never panic (FuzzLoad and FuzzLoadSnapshot
// assert this).
func Load(r io.Reader) (db *Database, err error) {
	defer func() {
		if p := recover(); p != nil {
			db, err = nil, fmt.Errorf("ansmet: malformed snapshot: %v", p)
		}
	}()
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ansmet: reading snapshot: %w", err)
	}
	version, payload, err := verifySnapshotBytes(data)
	if err != nil {
		return nil, err
	}
	snap, rest, err := decodeSnapshot(payload)
	if err != nil {
		return nil, fmt.Errorf("ansmet: decoding snapshot: %w", err)
	}
	if err := validateSnapshot(version, &snap); err != nil {
		return nil, err
	}
	rs, err := snapshotRows(version, &snap, rest)
	if err != nil {
		return nil, err
	}
	if err := validateTombstones(&snap, rs.Len()); err != nil {
		return nil, err
	}
	ix, err := hnsw.FromSnapshot(rs, snap.Graph)
	if err != nil {
		return nil, err
	}
	opts := Options{
		Metric: snap.Metric, Elem: snap.Elem, Seed: snap.Seed,
		// A live snapshot restores the live-mutation state.
		Mutable: snap.Live, RepairEvery: snap.RepairEvery,
	}
	db, err = newDatabase(opts, rs, ix)
	if err != nil {
		return nil, err
	}
	for _, id := range snap.Tombs {
		db.tomb.Delete(id)
	}
	db.pending = append(db.pending, snap.Pending...)
	db.walBase = snap.WALSeq
	return db, nil
}

// ---- Cluster persistence -------------------------------------------------
//
// A Cluster persists as a directory: one v4 Database snapshot per shard
// plus a manifest carrying the partition map. Every file is written with
// writeFileAtomic, and the manifest is written LAST — it is the commit
// point, so a crash mid-SaveDir leaves either the previous complete
// cluster or no loadable manifest, never a half-written mix that loads.

// clusterManifestMagic versions the manifest format.
const clusterManifestMagic = "ansmet-cluster-v1"

// clusterManifestHeader is the manifest's raw byte prefix (same role as
// snapshotHeader: reject non-manifest files before gob sees a byte).
var clusterManifestHeader = []byte("ANSMETCL1\n")

// ClusterManifestName is the manifest's file name inside a cluster
// directory.
const ClusterManifestName = "cluster.manifest"

// ShardSnapshotName returns shard s's snapshot file name inside a cluster
// directory.
func ShardSnapshotName(s int) string { return fmt.Sprintf("shard-%03d.snap", s) }

// clusterManifest is the gob-encoded partition map of a saved cluster.
type clusterManifest struct {
	Magic     string
	Partition int
	Total     int
	IDs       [][]uint32 // per shard: local row -> global id
}

// SaveDir persists the cluster to a directory: each shard's v4 snapshot,
// then the manifest as the atomic commit point.
func (c *Cluster) SaveDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("ansmet: creating cluster dir: %w", err)
	}
	for s, db := range c.shards {
		if err := db.SaveFile(filepath.Join(dir, ShardSnapshotName(s))); err != nil {
			return fmt.Errorf("ansmet: saving shard %d: %w", s, err)
		}
	}
	man := clusterManifest{
		Magic:     clusterManifestMagic,
		Partition: int(c.opts.Partition),
		Total:     c.total,
		IDs:       c.ids,
	}
	return writeFileAtomic(filepath.Join(dir, ClusterManifestName), func(w io.Writer) error {
		return writeFramed(w, "manifest", clusterManifestHeader, &man, nil)
	})
}

// decodeClusterManifest gob-decodes with the same recover guard as
// decodeSnapshot: hostile bytes must error, never panic.
func decodeClusterManifest(payload []byte) (man clusterManifest, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("ansmet: malformed cluster manifest: %v", p)
		}
	}()
	err = gob.NewDecoder(bytes.NewReader(payload)).Decode(&man)
	return man, err
}

// validateClusterManifest bounds-checks the partition map: every global id
// appears exactly once across shards and every shard is non-empty.
func validateClusterManifest(man *clusterManifest) error {
	if man.Magic != clusterManifestMagic {
		return fmt.Errorf("%w: unsupported manifest version %q (want %q)",
			ErrSnapshotBadMagic, man.Magic, clusterManifestMagic)
	}
	if man.Partition < 0 || man.Partition >= len(partitionNames) {
		return fmt.Errorf("ansmet: manifest has invalid partition scheme %d", man.Partition)
	}
	if len(man.IDs) == 0 {
		return fmt.Errorf("ansmet: manifest has no shards")
	}
	// The footer is a checksum, not a MAC: Total is checked against the ids
	// the file really holds before it sizes an allocation.
	count := 0
	for s, ids := range man.IDs {
		if len(ids) == 0 {
			return fmt.Errorf("ansmet: manifest shard %d is empty", s)
		}
		count += len(ids)
	}
	if count != man.Total {
		return fmt.Errorf("ansmet: manifest covers %d of %d ids", count, man.Total)
	}
	seen := make([]bool, man.Total)
	for s, ids := range man.IDs {
		for _, id := range ids {
			if int(id) >= man.Total {
				return fmt.Errorf("ansmet: manifest shard %d has id %d out of range (total %d)", s, id, man.Total)
			}
			if seen[id] {
				return fmt.Errorf("ansmet: manifest assigns id %d to multiple shards", id)
			}
			seen[id] = true
		}
	}
	return nil
}

// LoadClusterDir restores a cluster saved with SaveDir. The manifest
// determines the shard layout and partition scheme; opts supplies the
// fan-out behaviour (timeouts, hedging, breakers) exactly as in
// NewCluster, with its Shards and Partition fields overridden by the
// manifest. The same corruption hardening as Load applies: CRC before gob,
// typed errors, bounds checks, no panics.
func LoadClusterDir(dir string, opts ClusterOptions) (*Cluster, error) {
	data, err := os.ReadFile(filepath.Join(dir, ClusterManifestName))
	if err != nil {
		return nil, fmt.Errorf("ansmet: reading cluster manifest: %w", err)
	}
	payload, err := verifyIntegrity(data, clusterManifestHeader)
	if err != nil {
		return nil, fmt.Errorf("ansmet: cluster manifest: %w", err)
	}
	man, err := decodeClusterManifest(payload)
	if err != nil {
		return nil, fmt.Errorf("ansmet: decoding cluster manifest: %w", err)
	}
	if err := validateClusterManifest(&man); err != nil {
		return nil, err
	}
	dbs := make([]*Database, len(man.IDs))
	for s := range man.IDs {
		db, err := LoadFile(filepath.Join(dir, ShardSnapshotName(s)), nil)
		if err != nil {
			return nil, fmt.Errorf("ansmet: loading shard %d: %w", s, err)
		}
		if db.Len() != len(man.IDs[s]) {
			return nil, fmt.Errorf("ansmet: shard %d snapshot holds %d vectors, manifest says %d",
				s, db.Len(), len(man.IDs[s]))
		}
		if s > 0 && db.rows.Dim() != dbs[0].rows.Dim() {
			return nil, fmt.Errorf("ansmet: shard %d dimension %d disagrees with shard 0 (%d)",
				s, db.rows.Dim(), dbs[0].rows.Dim())
		}
		dbs[s] = db
	}
	opts.Shards = len(man.IDs)
	opts.Partition = PartitionScheme(man.Partition)
	return assembleCluster(dbs, man.IDs, man.Total, opts)
}
