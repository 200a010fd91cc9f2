package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// appendN opens a fresh log and appends n records with recognizable
// payloads, returning the file's bytes.
func appendN(t *testing.T, path string, n int) []byte {
	t.Helper()
	l, err := Open(path, 0, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < n; i++ {
		payload := bytes.Repeat([]byte{byte(i + 1)}, 5+i)
		seq, err := l.Append(uint8(i%3+1), payload)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("Append %d: seq %d, want %d", i, seq, i+1)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	return data
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	appendN(t, path, 7)

	var got []Record
	l, err := Open(path, 0, func(r Record) error {
		p := make([]byte, len(r.Payload))
		copy(p, r.Payload)
		got = append(got, Record{Type: r.Type, Seq: r.Seq, Payload: p})
		return nil
	})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	if len(got) != 7 {
		t.Fatalf("replayed %d records, want 7", len(got))
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) || r.Type != uint8(i%3+1) || len(r.Payload) != 5+i || r.Payload[0] != byte(i+1) {
			t.Fatalf("record %d mismatch: %+v", i, r)
		}
	}
	if l.LastSeq() != 7 {
		t.Fatalf("LastSeq %d, want 7", l.LastSeq())
	}
	// Appends continue the sequence.
	seq, err := l.Append(1, []byte("x"))
	if err != nil || seq != 8 {
		t.Fatalf("Append after replay: seq %d err %v", seq, err)
	}
}

func TestOpenSkipsCompactedRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	appendN(t, path, 5)
	var seqs []uint64
	l, err := Open(path, 3, func(r Record) error {
		seqs = append(seqs, r.Seq)
		return nil
	})
	if err != nil {
		t.Fatalf("Open(base=3): %v", err)
	}
	defer l.Close()
	if len(seqs) != 2 || seqs[0] != 4 || seqs[1] != 5 {
		t.Fatalf("replayed seqs %v, want [4 5]", seqs)
	}
}

// TestTornTailEveryOffset is the crash-point property at the journal
// layer: for EVERY byte offset, a journal cut there recovers exactly the
// records whose complete frames fit before the cut, and the torn tail is
// truncated away so subsequent appends produce a valid journal again.
func TestTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	full := appendN(t, filepath.Join(dir, "full.wal"), 4)

	// recordEnds[i] = file size after i complete records.
	var recordEnds []int
	recs, _, err := Scan(full, 0)
	if err != nil || len(recs) != 4 {
		t.Fatalf("Scan full: %d recs, err %v", len(recs), err)
	}
	off := len(header)
	recordEnds = append(recordEnds, off)
	for _, r := range recs {
		off += recordOverhead + len(r.Payload)
		recordEnds = append(recordEnds, off)
	}
	if off != len(full) {
		t.Fatalf("scan ended at %d, file is %d", off, len(full))
	}

	for cut := 0; cut <= len(full); cut++ {
		path := filepath.Join(dir, "cut.wal")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantRecs := 0
		for _, end := range recordEnds[1:] {
			if cut >= end {
				wantRecs++
			}
		}
		var n int
		l, err := Open(path, 0, func(r Record) error { n++; return nil })
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		if n != wantRecs {
			l.Close()
			t.Fatalf("cut %d: replayed %d records, want %d", cut, n, wantRecs)
		}
		// The journal must be append-ready: add a record and re-verify.
		if _, err := l.Append(9, []byte("post-crash")); err != nil {
			t.Fatalf("cut %d: Append after recovery: %v", cut, err)
		}
		l.Close()
		data, _ := os.ReadFile(path)
		recs, _, err := Scan(data, 0)
		if err != nil {
			t.Fatalf("cut %d: re-scan after recovery append: %v", cut, err)
		}
		if len(recs) != wantRecs+1 {
			t.Fatalf("cut %d: %d records after recovery append, want %d", cut, len(recs), wantRecs+1)
		}
	}
}

func TestBitFlipYieldsChecksumError(t *testing.T) {
	full := appendN(t, filepath.Join(t.TempDir(), "j.wal"), 3)
	// Flip one payload byte of the second record.
	recs, _, _ := Scan(full, 0)
	secondStart := len(header) + recordOverhead + len(recs[0].Payload)
	mut := bytes.Clone(full)
	mut[secondStart+14] ^= 0x40
	got, _, err := Scan(mut, 0)
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("Scan error %v, want ErrChecksum", err)
	}
	if len(got) != 1 {
		t.Fatalf("valid prefix %d records, want 1", len(got))
	}
}

func TestBadMagicRejectedWithoutTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-wal")
	content := []byte("precious user data that is not a journal")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path, 0, nil)
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("Open error %v, want ErrBadMagic", err)
	}
	after, _ := os.ReadFile(path)
	if !bytes.Equal(after, content) {
		t.Fatal("Open modified a non-journal file")
	}
}

func TestSequenceGapStopsReplay(t *testing.T) {
	full := appendN(t, filepath.Join(t.TempDir(), "j.wal"), 3)
	recs, _, _ := Scan(full, 0)
	rec1Len := recordOverhead + len(recs[0].Payload)
	// Splice record 1 out: the journal now starts at seq 2, a gap above a
	// seq-0 snapshot — corruption, not a compaction state.
	spliced := append(bytes.Clone(full[:len(header)]), full[len(header)+rec1Len:]...)
	got, _, err := Scan(spliced, 0)
	if !errors.Is(err, ErrBadSequence) {
		t.Fatalf("Scan error %v, want ErrBadSequence", err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d records, want 0", len(got))
	}
	// A mid-file gap (records 1 then 3) also stops after the valid prefix.
	rec2Len := recordOverhead + len(recs[1].Payload)
	gapped := append(bytes.Clone(full[:len(header)+rec1Len]), full[len(header)+rec1Len+rec2Len:]...)
	got, _, err = Scan(gapped, 0)
	if !errors.Is(err, ErrBadSequence) {
		t.Fatalf("Scan error %v, want ErrBadSequence", err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d records, want 1", len(got))
	}
}

func TestResetCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	l, err := Open(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	// Post-compaction appends continue the sequence (4, 5, ...).
	seq, err := l.Append(2, []byte("after"))
	if err != nil || seq != 4 {
		t.Fatalf("Append after Reset: seq %d err %v", seq, err)
	}
	l.Close()

	// Reopening against a snapshot at seq 3 replays only the new record.
	var seqs []uint64
	l2, err := Open(path, 3, func(r Record) error { seqs = append(seqs, r.Seq); return nil })
	if err != nil {
		t.Fatalf("reopen after Reset: %v", err)
	}
	defer l2.Close()
	if len(seqs) != 1 || seqs[0] != 4 {
		t.Fatalf("replayed %v, want [4]", seqs)
	}
}

func TestReplayErrorAborts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	appendN(t, path, 2)
	boom := errors.New("boom")
	_, err := Open(path, 0, func(r Record) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("Open error %v, want wrapped boom", err)
	}
}

func TestClosedAppend(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "j.wal"), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := l.Append(1, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append on closed log: %v, want ErrClosed", err)
	}
}

// FuzzScan asserts the parser never panics and always yields a valid
// record prefix on arbitrary bytes (the library-level half of
// FuzzWALReplay; the database-level half lives in the root package).
func FuzzScan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("ANSMETWAL1\n"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	seedPath := filepath.Join(f.TempDir(), "seed.wal")
	l, err := Open(seedPath, 0, nil)
	if err == nil {
		l.Append(1, []byte("abc"))
		l.Append(2, []byte("defgh"))
		l.Close()
		if data, err := os.ReadFile(seedPath); err == nil {
			f.Add(data)
			f.Add(data[:len(data)-3])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, validEnd, err := Scan(data, 0)
		if validEnd < 0 || validEnd > len(data) {
			t.Fatalf("validEnd %d outside [0, %d]", validEnd, len(data))
		}
		if err == nil && len(data) >= len(header) && validEnd != len(data) {
			t.Fatalf("nil error but validEnd %d != len %d", validEnd, len(data))
		}
		last := uint64(0)
		for _, r := range recs {
			if r.Seq != last+1 {
				t.Fatalf("non-contiguous seq %d after %d", r.Seq, last)
			}
			last = r.Seq
		}
	})
}

// faultyFile is a Log's file with one injected fault: the failWrite-th Write
// lets `through` bytes reach the file and fails, the failSync-th Sync fails,
// every Truncate fails when noTruncate is set (counts are 1-based, 0 = never).
type faultyFile struct {
	file
	failWrite, through, failSync int
	noTruncate                   bool
	writes, syncs                int
}

var errInjected = errors.New("injected fault")

func (f *faultyFile) Write(p []byte) (int, error) {
	if f.writes++; f.writes == f.failWrite {
		n, _ := f.file.Write(p[:f.through])
		return n, errInjected
	}
	return f.file.Write(p)
}

func (f *faultyFile) Sync() error {
	if f.syncs++; f.syncs == f.failSync {
		return errInjected
	}
	return f.file.Sync()
}

func (f *faultyFile) Truncate(size int64) error {
	if f.noTruncate {
		return errInjected
	}
	return f.file.Truncate(size)
}

// TestSingleFaultSweep is "acknowledged" as a property of the log: for every
// append index k and every single fault at it — the write fails after 0, 1,
// half or all but one of the frame's bytes, with and without a working
// rollback; the fsync fails — with appends continuing afterwards, a reopen
// replays exactly the acknowledged records, and the file ends on the last
// acknowledged byte. A failed write that rolls back leaves the log usable and
// reuses the sequence number; a failed fsync or a failed rollback stops it
// with ErrFailed, the same error for every later Append and Reset.
func TestSingleFaultSweep(t *testing.T) {
	const n = 6
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 5+i) }
	type fault struct {
		name       string
		through    func(frame int) int // write fault: bytes that reach the file
		sync       bool
		noTruncate bool
	}
	faults := []fault{
		{name: "sync", sync: true},
		{name: "write/0", through: func(int) int { return 0 }},
		{name: "write/1", through: func(int) int { return 1 }},
		{name: "write/mid", through: func(f int) int { return f / 2 }},
		{name: "write/all-but-one", through: func(f int) int { return f - 1 }},
		{name: "write/mid/no-rollback", through: func(f int) int { return f / 2 }, noTruncate: true},
		{name: "write/0/no-rollback", through: func(int) int { return 0 }, noTruncate: true},
	}
	for _, ft := range faults {
		for k := 1; k <= n; k++ {
			path := filepath.Join(t.TempDir(), "j.wal")
			l, err := Open(path, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			ff := &faultyFile{file: l.f, noTruncate: ft.noTruncate}
			if ft.sync {
				ff.failSync = k
			} else {
				ff.failWrite, ff.through = k, ft.through(recordOverhead+len(payload(k)))
			}
			l.f = ff

			var acked [][]byte
			var sticky error
			wantEnd := len(header)
			for i := 1; i <= n; i++ {
				seq, err := l.Append(uint8(i%3+1), payload(i))
				switch {
				case i < k || (i > k && sticky == nil):
					if err != nil || seq != uint64(len(acked)+1) {
						t.Fatalf("%s k=%d: append %d: seq %d, err %v", ft.name, k, i, seq, err)
					}
					acked = append(acked, payload(i))
					wantEnd += recordOverhead + len(payload(i))
				case i == k:
					if !errors.Is(err, errInjected) {
						t.Fatalf("%s k=%d: faulted append: %v", ft.name, k, err)
					}
					if stops := ft.sync || ft.noTruncate; errors.Is(err, ErrFailed) != stops {
						t.Fatalf("%s k=%d: faulted append: %v, ErrFailed wanted: %v", ft.name, k, err, stops)
					} else if stops {
						sticky = err
					}
				default:
					if err != sticky {
						t.Fatalf("%s k=%d: append %d after the log failed: %v, want %v", ft.name, k, i, err, sticky)
					}
				}
			}
			if sticky != nil {
				if err := l.Reset(); err != sticky {
					t.Fatalf("%s k=%d: Reset after the log failed: %v", ft.name, k, err)
				}
			}
			if l.LastSeq() != uint64(len(acked)) {
				t.Fatalf("%s k=%d: LastSeq %d, %d acknowledged", ft.name, k, l.LastSeq(), len(acked))
			}
			l.Close()
			if fi, _ := os.Stat(path); !ft.noTruncate && fi.Size() != int64(wantEnd) {
				t.Fatalf("%s k=%d: file is %d bytes, last acknowledged byte at %d", ft.name, k, fi.Size(), wantEnd)
			}

			var replayed [][]byte
			l, err = Open(path, 0, func(r Record) error {
				if r.Seq != uint64(len(replayed)+1) {
					t.Fatalf("%s k=%d: replayed seq %d at position %d", ft.name, k, r.Seq, len(replayed))
				}
				replayed = append(replayed, bytes.Clone(r.Payload))
				return nil
			})
			if err != nil {
				t.Fatalf("%s k=%d: reopen: %v", ft.name, k, err)
			}
			if len(replayed) != len(acked) {
				t.Fatalf("%s k=%d: replayed %d records, %d acknowledged", ft.name, k, len(replayed), len(acked))
			}
			for i := range acked {
				if !bytes.Equal(replayed[i], acked[i]) {
					t.Fatalf("%s k=%d: record %d: replayed %x, acknowledged %x", ft.name, k, i+1, replayed[i], acked[i])
				}
			}
			if fi, _ := os.Stat(path); fi.Size() != int64(wantEnd) {
				t.Fatalf("%s k=%d: reopened file is %d bytes, want %d", ft.name, k, fi.Size(), wantEnd)
			}
			if seq, err := l.Append(1, []byte("after")); err != nil || seq != uint64(len(acked)+1) {
				t.Fatalf("%s k=%d: append after reopen: seq %d, err %v", ft.name, k, seq, err)
			}
			l.Close()
		}
	}
}

// TestOutOfSequenceRefusedUntouched: a CRC-valid record out of sequence is not
// a torn tail — no crash writes one — so Open refuses with ErrBadSequence,
// replays nothing and leaves the file byte for byte as found: a journal that
// starts past base+1 (it belongs to a later snapshot; its records may be
// acknowledged writes) and a gap inside the file.
func TestOutOfSequenceRefusedUntouched(t *testing.T) {
	dir := t.TempDir()
	full := appendN(t, filepath.Join(dir, "full.wal"), 4)
	recs, _, _ := Scan(full, 0)
	rec1 := recordOverhead + len(recs[0].Payload)
	rec2 := recordOverhead + len(recs[1].Payload)
	for name, image := range map[string][]byte{
		"starts past base": append(bytes.Clone(full[:len(header)]), full[len(header)+rec1:]...),
		"gap inside":       append(bytes.Clone(full[:len(header)+rec1]), full[len(header)+rec1+rec2:]...),
	} {
		path := filepath.Join(dir, "bad.wal")
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(path, 0, func(Record) error {
			t.Fatalf("%s: a record was replayed", name)
			return nil
		})
		if !errors.Is(err, ErrBadSequence) {
			t.Fatalf("%s: Open error %v, want ErrBadSequence", name, err)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, image) {
			t.Fatalf("%s: Open modified the refused journal (%d → %d bytes)", name, len(image), len(after))
		}
	}
	// Records at or below the base are the legitimate state after a crash
	// between snapshot write and journal truncation: skipped, not refused.
	l, err := Open(filepath.Join(dir, "full.wal"), 4, func(Record) error {
		t.Fatal("a folded record was replayed")
		return nil
	})
	if err != nil || l.LastSeq() != 4 {
		t.Fatalf("journal wholly folded into its snapshot: %v", err)
	}
	l.Close()
}
