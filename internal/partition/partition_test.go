package partition

import (
	"testing"
)

func mustNew(t *testing.T, scheme Scheme, ranks, linesPerVector, subVectorBytes, banksPerRank, rowBytes int) *Map {
	t.Helper()
	m, err := New(scheme, ranks, linesPerVector, subVectorBytes, banksPerRank, rowBytes)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestHorizontal(t *testing.T) {
	m := mustNew(t, Horizontal, 32, 8, 0, 32, 8192)
	if m.NumSegments() != 1 || m.Groups() != 32 {
		t.Fatalf("horizontal: %d segs, %d groups", m.NumSegments(), m.Groups())
	}
	if m.SegLines(0) != 8 {
		t.Errorf("segment lines = %d, want 8", m.SegLines(0))
	}
	// All lines of a vector land in one rank.
	g := m.GroupOf(5)
	r := m.RankFor(g, 0)
	for line := 0; line < 8; line++ {
		if a := m.Addr(5, g, 0, line); a.Rank != r {
			t.Errorf("line %d in rank %d, want %d", line, a.Rank, r)
		}
	}
}

func TestVertical(t *testing.T) {
	m := mustNew(t, Vertical, 32, 64, 0, 32, 8192)
	if m.NumSegments() != 32 || m.Groups() != 1 {
		t.Fatalf("vertical: %d segs, %d groups", m.NumSegments(), m.Groups())
	}
	total := 0
	ranks := map[int]bool{}
	for s := 0; s < m.NumSegments(); s++ {
		total += m.SegLines(s)
		ranks[m.RankFor(0, s)] = true
	}
	if total != 64 {
		t.Errorf("segments cover %d lines, want 64", total)
	}
	if len(ranks) != 32 {
		t.Errorf("vertical uses %d distinct ranks, want 32", len(ranks))
	}
}

func TestVerticalShortVector(t *testing.T) {
	// A 2-line vector cannot be split across 32 ranks.
	m := mustNew(t, Vertical, 32, 2, 0, 32, 8192)
	if m.NumSegments() != 2 {
		t.Errorf("short vector: %d segments, want 2", m.NumSegments())
	}
}

func TestHybrid(t *testing.T) {
	// GIST-like: 960-dim fp32 = 60 lines = 3840 B. With S=1 kB: 4 segments
	// of 16,16,16,12 lines; 8 rank groups over 32 ranks.
	m := mustNew(t, Hybrid, 32, 60, 1024, 32, 8192)
	if m.NumSegments() != 4 {
		t.Fatalf("hybrid segs = %d, want 4", m.NumSegments())
	}
	if m.Groups() != 8 {
		t.Fatalf("hybrid groups = %d, want 8", m.Groups())
	}
	if m.SegLines(0) != 16 || m.SegLines(3) != 12 {
		t.Errorf("seg lines = %d,...,%d, want 16..12", m.SegLines(0), m.SegLines(3))
	}
	// SIFT-like small vectors degenerate to horizontal under S=1 kB.
	m = mustNew(t, Hybrid, 32, 2, 1024, 32, 8192)
	if m.NumSegments() != 1 || m.Groups() != 32 {
		t.Errorf("small hybrid: %d segs, %d groups", m.NumSegments(), m.Groups())
	}
}

func TestHybridOversizedVector(t *testing.T) {
	// Vector larger than ranks*segLines must cap segments at rank count.
	m := mustNew(t, Hybrid, 4, 1000, 64, 4, 8192)
	if m.NumSegments() > 4 {
		t.Errorf("segments %d exceed ranks", m.NumSegments())
	}
	total := 0
	for s := 0; s < m.NumSegments(); s++ {
		total += m.SegLines(s)
	}
	if total < 1000 {
		t.Errorf("segments cover %d of 1000 lines", total)
	}
}

func TestEveryLineMapsOnce(t *testing.T) {
	// Invariant 5 of DESIGN.md: every (vector, line) maps to exactly one
	// physical address, and distinct lines never collide within a vector.
	m := mustNew(t, Hybrid, 8, 10, 256, 4, 1024)
	seen := map[dramKey]bool{}
	for id := uint32(0); id < 40; id++ {
		g := m.GroupOf(id)
		for s := 0; s < m.NumSegments(); s++ {
			for l := 0; l < m.SegLines(s); l++ {
				a := m.Addr(id, g, s, l)
				k := dramKey{id, a.Rank, a.Bank, a.Row, l, s}
				if seen[k] {
					t.Fatalf("duplicate mapping %+v", k)
				}
				seen[k] = true
				if a.Rank < 0 || a.Rank >= 8 {
					t.Fatalf("rank %d out of range", a.Rank)
				}
				if a.Bank < 0 || a.Bank >= 4 {
					t.Fatalf("bank %d out of range", a.Bank)
				}
			}
		}
	}
}

type dramKey struct {
	id         uint32
	rank, bank int
	row        int64
	line, seg  int
}

func TestSequentialLinesShareRows(t *testing.T) {
	// Within a segment, consecutive lines should mostly hit the same row
	// (this is what makes ET's sequential fetch row-buffer friendly).
	m := mustNew(t, Horizontal, 4, 32, 0, 4, 8192)
	g := m.GroupOf(0)
	changes := 0
	prev := m.Addr(0, g, 0, 0).Row
	for l := 1; l < 32; l++ {
		r := m.Addr(0, g, 0, l).Row
		if r != prev {
			changes++
		}
		prev = r
	}
	if changes > 1 {
		t.Errorf("32 sequential lines crossed %d row boundaries", changes)
	}
}

func TestReplication(t *testing.T) {
	m := mustNew(t, Hybrid, 32, 60, 1024, 32, 8192)
	m.SetReplicated([]uint32{3, 7})
	if !m.IsReplicated(3) || !m.IsReplicated(7) || m.IsReplicated(4) {
		t.Error("replication flags wrong")
	}
	if m.ReplicatedCount() != 2 {
		t.Errorf("replicated count = %d", m.ReplicatedCount())
	}
	// A replicated vector must be addressable in every group.
	for g := 0; g < m.Groups(); g++ {
		a := m.Addr(3, g, 0, 0)
		if a.Rank != m.RankFor(g, 0) {
			t.Errorf("replica in group %d at rank %d", g, a.Rank)
		}
	}
}

func TestFetchedPerSegment(t *testing.T) {
	m := mustNew(t, Hybrid, 32, 60, 1024, 32, 8192) // segs 16,16,16,12
	// Accepted: everything.
	full := m.AppendFetchedPerSegment(nil, 60, true)
	want := []int{16, 16, 16, 12}
	for i := range want {
		if full[i] != want[i] {
			t.Fatalf("full fetch = %v, want %v", full, want)
		}
	}
	// Local termination at nfLocal=8: each of the 4 ranks reaches the same
	// bit depth after ceil(8/4)=2 of its own lines.
	et := m.AppendFetchedPerSegment(nil, 8, false)
	for i := range et {
		if et[i] != 2 {
			t.Fatalf("nfLocal=8 fetch = %v, want all 2", et)
		}
	}
	// nfLocal=50: ceil(50/4)=13, capped by the 12-line last segment.
	et = m.AppendFetchedPerSegment(nil, 50, false)
	if et[0] != 13 || et[3] != 12 {
		t.Fatalf("nfLocal=50 fetch = %v", et)
	}
	// Never locally terminated behaves like a full fetch.
	et = m.AppendFetchedPerSegment(nil, 60, false)
	for i := range want {
		if et[i] != want[i] {
			t.Fatalf("nfLocal=total fetch = %v, want %v", et, want)
		}
	}
}

func TestHorizontalPreservesETSavings(t *testing.T) {
	// Horizontal: total traffic of a rejected vector equals exactly the
	// sequential termination position (nfLocal == nf when segments == 1).
	m := mustNew(t, Horizontal, 32, 60, 0, 32, 8192)
	et := m.AppendFetchedPerSegment(nil, 7, false)
	if len(et) != 1 || et[0] != 7 {
		t.Errorf("horizontal nf=7 traffic = %v", et)
	}
	// Vertical with the same local position splits it across ranks; a
	// realistic (larger) nfLocal restores the paper's inflation.
	mv := mustNew(t, Vertical, 4, 60, 0, 32, 8192)    // 4 segs of 15
	etv := mv.AppendFetchedPerSegment(nil, 28, false) // local ET fires 4x later
	total := 0
	for _, x := range etv {
		total += x
	}
	if total != 28 { // ceil(28/4)*4
		t.Errorf("vertical nfLocal=28 traffic = %d, want 28", total)
	}
}

func TestInvalidConfigs(t *testing.T) {
	if _, err := New(Hybrid, 0, 8, 1024, 32, 8192); err == nil {
		t.Error("zero ranks should fail")
	}
	if _, err := New(Hybrid, 8, 8, 32, 32, 8192); err == nil {
		t.Error("sub-line sub-vector should fail")
	}
	if _, err := New(Scheme(9), 8, 8, 1024, 32, 8192); err == nil {
		t.Error("unknown scheme should fail")
	}
}

func TestSegLinesPanics(t *testing.T) {
	m := mustNew(t, Horizontal, 4, 8, 0, 4, 8192)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range segment did not panic")
		}
	}()
	m.SegLines(1)
}

func TestLocate(t *testing.T) {
	m := mustNew(t, Hybrid, 32, 60, 1024, 32, 8192) // segLines 16
	cases := []struct{ line, seg, off int }{
		{0, 0, 0}, {15, 0, 15}, {16, 1, 0}, {47, 2, 15}, {59, 3, 11},
	}
	for _, c := range cases {
		seg, off := m.Locate(c.line)
		if seg != c.seg || off != c.off {
			t.Errorf("Locate(%d) = (%d,%d), want (%d,%d)", c.line, seg, off, c.seg, c.off)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range line did not panic")
		}
	}()
	m.Locate(60)
}

func TestSchemeString(t *testing.T) {
	if Horizontal.String() != "horizontal" || Vertical.String() != "vertical" || Hybrid.String() != "hybrid" {
		t.Error("scheme names wrong")
	}
	if Scheme(9).String() == "" {
		t.Error("unknown scheme should still print")
	}
}

func TestRankForPanics(t *testing.T) {
	m := mustNew(t, Horizontal, 4, 8, 0, 4, 8192)
	defer func() {
		if recover() == nil {
			t.Fatal("bad group did not panic")
		}
	}()
	m.RankFor(99, 0)
}
