// Crash-safety and corruption tests for the snapshot format: every torn
// write, bit flip, and damaged footer must surface as a typed error —
// never a panic, never a silently wrong database — and SaveFile must leave
// either the complete old file or the complete new file, nothing between.
package ansmet

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ansmet/internal/hnsw"
)

// validSnapshot returns the bytes of a freshly saved tiny database.
func validSnapshot(t testing.TB) []byte {
	t.Helper()
	db := tinyDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// craftedGraph is a checksum-valid snapshot whose graph lies about itself,
// and what the refusal must name.
type craftedGraph struct {
	name  string
	image []byte
	want  string // substring of Load's error
}

// craftedGraphs re-encodes the tiny database's snapshot with one graph field
// changed each — files the integrity footer vouches for, so only
// hnsw.FromSnapshot stands between them and a serving index: a level-0 list
// longer than Cfg.MaxDegree, a MaxLevel that is not the entry node's level,
// and a Cfg a live Insert cannot use.
func craftedGraphs(t testing.TB) []craftedGraph {
	t.Helper()
	craft := func(name, want string, corrupt func(g *hnsw.Snapshot)) craftedGraph {
		return craftedGraph{name, recraft(t, validSnapshot(t), func(snap *dbSnapshot, _ *[]byte) { corrupt(snap.Graph) }), want}
	}
	return []craftedGraph{
		craft("long level-0 list", "node 5 level 0 has 40 neighbors, Cfg.MaxDegree is 16", func(g *hnsw.Snapshot) {
			g.Neighbors[5][0] = make([]uint32, 40)
		}),
		craft("unchecked MaxLevel", "MaxLevel 1073741824", func(g *hnsw.Snapshot) { g.MaxLevel = 1 << 30 }),
		craft("M = 1", "snapshot Cfg: hnsw: invalid config", func(g *hnsw.Snapshot) { g.Cfg.M = 1 }),
	}
}

// recraft decodes a v4 image, lets edit change the decoded head and the raw
// row section, and writes them back with a fresh, valid integrity footer: a
// file the checksum vouches for, so only the loader's own checks stand
// between it and a serving database.
func recraft(t testing.TB, image []byte, edit func(snap *dbSnapshot, rowSection *[]byte)) []byte {
	t.Helper()
	_, payload, err := verifySnapshotBytes(image)
	if err != nil {
		t.Fatal(err)
	}
	snap, rest, err := decodeSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	rowSection := append([]byte(nil), rest...)
	edit(&snap, &rowSection)
	var buf bytes.Buffer
	if err := writeSnapshot(&buf, &snap, bytes.NewReader(rowSection)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRefusesCraftedGraphs: each crafted file fails Load with an error
// naming the field, and the same database still loads uncrafted.
func TestLoadRefusesCraftedGraphs(t *testing.T) {
	for _, c := range craftedGraphs(t) {
		db, err := Load(bytes.NewReader(c.image))
		if err == nil || db != nil {
			t.Errorf("%s: loaded (err %v)", c.name, err)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name %q", c.name, err, c.want)
		}
	}
	if _, err := Load(bytes.NewReader(validSnapshot(t))); err != nil {
		t.Fatal(err)
	}
}

// TestLoadSnapshotCorruption: table-driven truncations, bit flips, and
// footer damage — each must return the matching typed error.
func TestLoadSnapshotCorruption(t *testing.T) {
	valid := validSnapshot(t)
	if len(valid) < len(snapshotHeader)+snapshotFooterLen+64 {
		t.Fatalf("snapshot suspiciously small: %d bytes", len(valid))
	}
	flip := func(data []byte, at int) []byte {
		out := append([]byte(nil), data...)
		out[at] ^= 0x10
		return out
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrSnapshotTruncated},
		{"torn-header", valid[:4], ErrSnapshotTruncated},
		{"header-only", valid[:len(snapshotHeader)], ErrSnapshotTruncated},
		{"torn-mid-gob", valid[:len(valid)/2], ErrSnapshotTruncated},
		{"missing-last-byte", valid[:len(valid)-1], ErrSnapshotTruncated},
		{"missing-footer", valid[:len(valid)-snapshotFooterLen], ErrSnapshotTruncated},
		{"not-a-snapshot", []byte("definitely not a database"), ErrSnapshotBadMagic},
		{"old-version-header", []byte("ANSMETDB2\n plus some gob bytes and then padding to get past the footer length check"), ErrSnapshotBadMagic},
		{"flipped-header-bit", flip(valid, 2), ErrSnapshotBadMagic},
		{"flipped-payload-bit", flip(valid, len(valid)/2), ErrSnapshotChecksum},
		{"flipped-first-gob-bit", flip(valid, len(snapshotHeader)), ErrSnapshotChecksum},
		{"flipped-crc-bit", flip(valid, len(valid)-1), ErrSnapshotChecksum},
		{"flipped-length-bit", flip(valid, len(valid)-snapshotFooterLen+10), ErrSnapshotTruncated},
		{"damaged-footer-magic", flip(valid, len(valid)-snapshotFooterLen), ErrSnapshotTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Load(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("corrupt snapshot loaded without error")
			}
			if db != nil {
				t.Fatal("Load returned both a database and an error")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want errors.Is(err, %v)", err, tc.want)
			}
		})
	}
}

// TestLoadEveryTruncation: every strict prefix of a valid snapshot must be
// rejected with a typed corruption error (acceptance: LoadFile rejects
// every truncated snapshot). Sampled stride keeps the test fast.
func TestLoadEveryTruncation(t *testing.T) {
	valid := validSnapshot(t)
	for cut := 0; cut < len(valid); cut += 37 {
		db, err := Load(bytes.NewReader(valid[:cut]))
		if err == nil || db != nil {
			t.Fatalf("truncation at %d/%d bytes loaded without error", cut, len(valid))
		}
		if !errors.Is(err, ErrSnapshotTruncated) && !errors.Is(err, ErrSnapshotBadMagic) {
			t.Fatalf("truncation at %d: err = %v, want typed corruption error", cut, err)
		}
	}
}

// TestSaveFileCrashLeavesNoPartial simulates a crash after the temp file
// is written but before the rename: the destination must be untouched
// (absent, or the previous complete snapshot) and the temp file removed.
func TestSaveFileCrashLeavesNoPartial(t *testing.T) {
	db := tinyDB(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "db.snap")

	saveFileTestHook = func(string) error { return fmt.Errorf("injected crash before rename") }
	defer func() { saveFileTestHook = nil }()

	if err := db.SaveFile(path); err == nil {
		t.Fatal("SaveFile succeeded despite injected crash")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("destination exists after crashed first save (stat err=%v)", err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 0 {
		t.Fatalf("crashed SaveFile left %d files behind", len(entries))
	}

	// Now the overwrite case: a crash during re-save must leave the
	// previous complete snapshot readable.
	saveFileTestHook = nil
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	saveFileTestHook = func(string) error { return fmt.Errorf("injected crash before rename") }
	if err := db.SaveFile(path); err == nil {
		t.Fatal("overwriting SaveFile succeeded despite injected crash")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("crashed overwrite modified the destination file")
	}
	if _, err := LoadFile(path, nil); err != nil {
		t.Fatalf("previous snapshot unreadable after crashed overwrite: %v", err)
	}
}

// FuzzLoadSnapshot: bit-flipped and truncated variants of a real SaveFile
// output must never panic and never load; arbitrary bytes must never
// panic. (Complements FuzzLoad, which starts from hostile bytes; this one
// seeds the corpus with the real on-disk artifact.)
func FuzzLoadSnapshot(f *testing.F) {
	db := tinyDB(f)
	path := filepath.Join(f.TempDir(), "db.snap")
	if err := db.SaveFile(path); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-snapshotFooterLen]) // footer torn off
	f.Add(valid[:len(valid)/3])
	for _, at := range []int{0, len(snapshotHeader), len(valid) / 2, len(valid) - 2} {
		mut := append([]byte(nil), valid...)
		mut[at] ^= 0x01
		f.Add(mut)
	}
	for _, c := range craftedRows(f) { // checksum-valid, row section invalid
		f.Add(c.image)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := Load(bytes.NewReader(data))
		if err != nil && db != nil {
			t.Fatal("Load returned both a database and an error")
		}
		if err == nil && db == nil {
			t.Fatal("Load returned neither a database nor an error")
		}
		// Any single-byte difference from the valid image must be caught:
		// equality of CRC32C under a sparse flip is not possible.
		if err == nil && len(data) == len(valid) && !bytes.Equal(data, valid) {
			diff := 0
			for i := range data {
				if data[i] != valid[i] {
					diff++
				}
			}
			if diff <= 2 {
				t.Fatalf("snapshot with %d flipped bytes loaded successfully", diff)
			}
		}
	})
}
