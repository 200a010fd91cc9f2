// Package wal implements the write-ahead log behind the live mutable
// index: an append-only journal of mutation records with per-record
// CRC32C framing and fsync-on-ack durability. The contract mirrors the v3
// snapshot format's hardening (raw magic before any parsing, checksums
// verified before a payload byte is trusted, a typed corruption-error
// taxonomy) but adapted to a log: a crash can tear only the *tail* of the
// file, so recovery replays the valid record prefix and truncates a tail
// that stops short or fails its CRC. A record is acknowledged only after the
// fsync that made it durable returned, and Log keeps the offset of the last
// acknowledged byte, so the truncated tail never contains an acknowledged
// write — and a file that is wrong in a way no tear produces is refused, not
// repaired (see Open).
//
// On-disk layout:
//
//	header:  "ANSMETWAL1\n"                        (11 bytes)
//	record:  type uint8 | seq uint64 LE | len uint32 LE | payload | crc32c uint32 LE
//
// The CRC covers type, seq, len and payload. Sequence numbers are
// strictly contiguous (seq = previous + 1, starting at base+1 where base
// is the snapshot's compaction point); a gap or regression marks the
// record invalid even if its CRC holds, because it can only arise from a
// mismatched journal.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// header is the raw byte prefix of every journal file.
var header = []byte("ANSMETWAL1\n")

// recordOverhead is the framing cost of one record: type (1) + seq (8) +
// payload length (4) + trailing CRC32C (4).
const recordOverhead = 1 + 8 + 4 + 4

// MaxPayload bounds a single record's payload. Anything larger in a
// length field is treated as corruption rather than allocated.
const MaxPayload = 1 << 26 // 64 MiB

// Typed corruption errors, matched with errors.Is — the journal analogue
// of the snapshot taxonomy (ErrSnapshotBadMagic / Truncated / Checksum).
var (
	// ErrBadMagic reports a file that is not an ANSMETWAL1 journal at all.
	// Unlike tail corruption this is never recoverable by truncation: the
	// file belongs to something else and must not be overwritten blindly.
	ErrBadMagic = errors.New("wal: not an ANSMETWAL1 journal")
	// ErrTruncated reports a record cut short — the frame or payload ends
	// before its declared length (the normal torn-tail crash signature).
	ErrTruncated = errors.New("wal: truncated record")
	// ErrChecksum reports a record whose CRC32C does not match its bytes.
	ErrChecksum = errors.New("wal: record checksum mismatch")
	// ErrBadSequence reports a record whose sequence number is not the
	// predecessor's + 1 (a corrupt or mismatched journal).
	ErrBadSequence = errors.New("wal: record out of sequence")
	// ErrClosed reports an append to a closed log.
	ErrClosed = errors.New("wal: log is closed")
	// ErrFailed reports a log stopped by a failed fsync or a failed rollback;
	// it wraps the first cause. What the file holds is for Open to find out.
	ErrFailed = errors.New("wal: log has failed and must be reopened")
)

// castagnoli is the CRC32C table (same polynomial as the snapshot footer).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one journal entry: an opaque payload tagged with a caller-
// defined type byte and the log's monotone sequence number.
type Record struct {
	Type    uint8
	Seq     uint64
	Payload []byte
}

// Scan parses a journal image and returns the longest valid record
// suffix newer than seq base: records must be strictly contiguous within
// the file, records with seq <= base are skipped (already folded into the
// snapshot — the legitimate state after a crash between snapshot write
// and journal truncation), and the first record's seq must not leave a
// gap above base. Also returned are the byte offset where valid data ends
// and the error that stopped the scan (nil when the image ends exactly on
// a record boundary). Scan never panics on arbitrary input (FuzzWALReplay
// asserts this); the returned records alias data.
func Scan(data []byte, base uint64) (recs []Record, validEnd int, err error) {
	if len(data) < len(header) {
		if !headerPrefix(data) {
			return nil, 0, fmt.Errorf("%w (short header)", ErrBadMagic)
		}
		return nil, 0, fmt.Errorf("%w: %d bytes is shorter than the header", ErrTruncated, len(data))
	}
	if !headerPrefix(data[:len(header)]) {
		return nil, 0, fmt.Errorf("%w (bad header)", ErrBadMagic)
	}
	off := len(header)
	seq := uint64(0)
	first := true
	for off < len(data) {
		rest := data[off:]
		if len(rest) < recordOverhead {
			return recs, off, fmt.Errorf("%w: %d trailing bytes at offset %d", ErrTruncated, len(rest), off)
		}
		plen := binary.LittleEndian.Uint32(rest[9:13])
		if plen > MaxPayload {
			return recs, off, fmt.Errorf("%w: declared payload %d exceeds limit at offset %d", ErrChecksum, plen, off)
		}
		total := recordOverhead + int(plen)
		if len(rest) < total {
			return recs, off, fmt.Errorf("%w: record needs %d bytes, %d remain at offset %d",
				ErrTruncated, total, len(rest), off)
		}
		frame := rest[:total-4]
		wantCRC := binary.LittleEndian.Uint32(rest[total-4 : total])
		if got := crc32.Checksum(frame, castagnoli); got != wantCRC {
			return recs, off, fmt.Errorf("%w: crc32c %08x, frame says %08x at offset %d",
				ErrChecksum, got, wantCRC, off)
		}
		rseq := binary.LittleEndian.Uint64(rest[1:9])
		if first {
			if rseq > base+1 {
				return recs, off, fmt.Errorf("%w: journal starts at seq %d, snapshot covers through %d at offset %d",
					ErrBadSequence, rseq, base, off)
			}
			first = false
		} else if rseq != seq+1 {
			return recs, off, fmt.Errorf("%w: got seq %d after %d at offset %d",
				ErrBadSequence, rseq, seq, off)
		}
		seq = rseq
		if rseq > base {
			recs = append(recs, Record{Type: rest[0], Seq: rseq, Payload: frame[13:]})
		}
		off += total
	}
	return recs, off, nil
}

// headerPrefix reports whether b is a prefix of the journal header.
func headerPrefix(b []byte) bool {
	if len(b) > len(header) {
		return false
	}
	for i := range b {
		if b[i] != header[i] {
			return false
		}
	}
	return true
}

// file is what a Log needs of the *os.File Open hands it; the fault tests
// substitute one whose k-th Write or Sync fails.
type file interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Close() error
}

// Log is an open journal positioned for appending. Not safe for
// concurrent use; callers serialize on their mutation writer lock.
type Log struct {
	f      file
	path   string
	seq    uint64 // last acknowledged sequence number (or base)
	end    int64  // offset just past the last acknowledged byte
	buf    []byte // append frame scratch
	failed error  // sticky ErrFailed once a sync or a rollback has failed
	closed bool
}

// Open opens (or creates) the journal at path and recovers it: existing
// records with seq > base are passed to replay in order, a torn tail is
// truncated away, and the log is positioned for appending with the next
// sequence number following the last valid record. base is the snapshot's
// compaction point: records with seq <= base were already folded into the
// snapshot and are skipped (they are legitimately present after a crash
// between snapshot write and journal truncation).
//
// A torn tail is what a crash mid-append leaves, and only that: a suffix that
// stops short (ErrTruncated) or fails its CRC (ErrChecksum); no acknowledged
// record is in it. Everything else is a refusal that replays nothing and
// leaves the file byte for byte as found: a header that is not a journal's
// (ErrBadMagic — the file is not ours to rewrite) and a CRC-valid record out
// of sequence (ErrBadSequence — no tear writes one; the journal belongs to
// another snapshot, and its records may be acknowledged writes). A replay
// callback error likewise aborts recovery and closes the file untouched.
func Open(path string, base uint64, replay func(Record) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: opening journal: %w", err)
	}
	data, err := io.ReadAll(f) // leaves the write position at the end
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: reading journal: %w", err)
	}
	l := &Log{f: f, path: path, seq: base, end: int64(len(data))}
	recs, validEnd, scanErr := Scan(data, base)
	if scanErr != nil && !errors.Is(scanErr, ErrTruncated) && !errors.Is(scanErr, ErrChecksum) {
		f.Close()
		return nil, scanErr
	}
	for _, r := range recs {
		if replay != nil {
			if err := replay(r); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: replaying record seq %d: %w", r.Seq, err)
			}
		}
		l.seq = r.Seq
	}
	if validEnd < len(data) {
		// A torn tail (the scan's other verdicts returned above). Everything
		// before validEnd was CRC-verified and contiguous; everything after
		// was never acknowledged (the ack is the fsync of a complete record).
		err = l.truncateTo(int64(validEnd))
	}
	if err == nil && validEnd < len(header) {
		// A fresh file, or a crash that tore the header itself — no record can
		// have been acknowledged (the header is written and fsynced before the
		// first append), so a fresh header restores an empty journal.
		err = l.writeHeader()
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// writeHeader writes and fsyncs the magic header of an empty journal.
func (l *Log) writeHeader() error {
	if _, err := l.f.Write(header); err != nil {
		return fmt.Errorf("wal: writing journal header: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing journal header: %w", err)
	}
	l.end = int64(len(header))
	return nil
}

// truncateTo cuts the file at off, makes the cut durable and positions the
// next write there.
func (l *Log) truncateTo(off int64) error {
	if err := l.f.Truncate(off); err != nil {
		return fmt.Errorf("wal: truncating journal: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing truncation: %w", err)
	}
	if _, err := l.f.Seek(off, io.SeekStart); err != nil {
		return fmt.Errorf("wal: seeking to journal end: %w", err)
	}
	l.end = off
	return nil
}

// fail stops the log for good and returns the sticky error.
func (l *Log) fail(cause error) error {
	l.failed = fmt.Errorf("%w: %w", ErrFailed, cause)
	return l.failed
}

// usable gates Append and Reset.
func (l *Log) usable() error {
	if l.closed {
		return ErrClosed
	}
	return l.failed
}

// Append journals one record and makes it durable: the frame is written
// and fsynced before Append returns, so a returned sequence number IS the
// acknowledgment — a crash at any later byte offset cannot lose it. A refused
// record leaves no byte behind: after a failed write the file is cut back to
// the last acknowledged byte and the log stays usable (the next Append reuses
// the sequence number); after a failed fsync — the page cache can no longer
// be trusted — or a failed cut the log is ErrFailed until reopened.
func (l *Log) Append(typ uint8, payload []byte) (uint64, error) {
	if err := l.usable(); err != nil {
		return 0, err
	}
	if len(payload) > MaxPayload {
		return 0, fmt.Errorf("wal: payload %d exceeds limit %d", len(payload), MaxPayload)
	}
	seq := l.seq + 1
	need := recordOverhead + len(payload)
	if cap(l.buf) < need {
		l.buf = make([]byte, need)
	}
	b := l.buf[:need]
	b[0] = typ
	binary.LittleEndian.PutUint64(b[1:9], seq)
	binary.LittleEndian.PutUint32(b[9:13], uint32(len(payload)))
	copy(b[13:], payload)
	crc := crc32.Checksum(b[:13+len(payload)], castagnoli)
	binary.LittleEndian.PutUint32(b[13+len(payload):], crc)
	if _, err := l.f.Write(b); err != nil {
		err = fmt.Errorf("wal: appending record: %w", err)
		if cutErr := l.truncateTo(l.end); cutErr != nil {
			return 0, l.fail(errors.Join(err, cutErr))
		}
		return 0, err
	}
	if err := l.f.Sync(); err != nil {
		// Best effort, the log is failed whatever it returns: a reopen then
		// finds the acknowledged prefix and not this frame.
		_ = l.truncateTo(l.end)
		return 0, l.fail(fmt.Errorf("wal: syncing record: %w", err))
	}
	l.seq, l.end = seq, l.end+int64(need)
	return seq, nil
}

// LastSeq returns the sequence number of the last acknowledged record (the
// compaction base when the journal is empty).
func (l *Log) LastSeq() uint64 { return l.seq }

// Path returns the journal's file path.
func (l *Log) Path() string { return l.path }

// Reset truncates the journal back to its bare header — the snapshot
// compaction point. The caller must have durably persisted a snapshot
// covering every journaled record first; sequence numbering continues
// from the current point, so records appended after Reset replay
// correctly against that snapshot.
func (l *Log) Reset() error {
	if err := l.usable(); err != nil {
		return err
	}
	if err := l.truncateTo(int64(len(header))); err != nil {
		return l.fail(err)
	}
	return nil
}

// Close releases the file handle. Further appends fail with ErrClosed.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close()
}
