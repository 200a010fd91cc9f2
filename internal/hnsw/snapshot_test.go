package hnsw

import (
	"reflect"
	"strings"
	"testing"

	"ansmet/internal/dataset"
	"ansmet/internal/engine"
	"ansmet/internal/rows"
	"ansmet/internal/vecmath"
)

func TestSnapshotRoundTrip(t *testing.T) {
	p := dataset.ProfileByName("SIFT")
	ds := dataset.Generate(p, 400, 5, 61)
	ix, err := Build(ds.Rows(), p.Metric, Config{M: 8, MaxDegree: 16, EfConstruction: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap := ix.Snapshot()
	back, err := FromSnapshot(ds.Rows(), snap)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.NewExact(ds.Vectors, p.Metric, p.Elem)
	for _, q := range ds.Queries {
		a := ix.SearchFilteredInto(q, 10, 50, 1, nil, eng, nil, nil)
		b := back.SearchFilteredInto(q, 10, 50, 1, nil, eng, nil, nil)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("snapshot search diverges: %+v vs %+v", a[j], b[j])
			}
		}
	}
}

func TestFromSnapshotValidation(t *testing.T) {
	p := dataset.ProfileByName("SIFT")
	ds := dataset.Generate(p, 100, 0, 61)
	ix, _ := Build(ds.Rows(), p.Metric, Config{M: 8, MaxDegree: 16, EfConstruction: 40, Seed: 1})
	snap := ix.Snapshot()

	if _, err := FromSnapshot(rows.MustPack(ds.Vectors[:50], p.Elem), snap); err == nil {
		t.Error("mismatched vector count should fail")
	}
	bad := *snap
	bad.Entry = 1000
	if _, err := FromSnapshot(ds.Rows(), &bad); err == nil {
		t.Error("out-of-range entry should fail")
	}
	// Corrupt an edge.
	bad2 := *snap
	bad2.Neighbors = make([][][]uint32, len(snap.Neighbors))
	copy(bad2.Neighbors, snap.Neighbors)
	lvl := make([][]uint32, len(snap.Neighbors[0]))
	copy(lvl, snap.Neighbors[0])
	lvl[0] = append(append([]uint32{}, lvl[0]...), 9999)
	bad2.Neighbors[0] = lvl
	if _, err := FromSnapshot(ds.Rows(), &bad2); err == nil {
		t.Error("out-of-range edge should fail")
	}
}

// TestFromSnapshotRejectsUntrustedFields: a snapshot arrives from a file, so
// every field the index later trusts without looking is refused here, with
// an error that names it. Each row is a CRC-valid file the parent of this
// check loaded: a level-0 list wider than the MaxDegree its block is sized
// for, a MaxLevel every query would walk down from, and construction
// parameters the first live Insert divides by.
func TestFromSnapshotRejectsUntrustedFields(t *testing.T) {
	p := dataset.ProfileByName("SIFT")
	ds := dataset.Generate(p, 60, 0, 61)
	ix, err := Build(ds.Rows(), p.Metric, Config{M: 4, MaxDegree: 4, EfConstruction: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// widen pads a list with valid, distinct-enough ids up to n entries.
	widen := func(lst []uint32, n int) []uint32 {
		out := append([]uint32(nil), lst...)
		for id := uint32(0); len(out) < n; id++ {
			out = append(out, id)
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		corrupt func(s *Snapshot)
		want    []string // substrings of the error
	}{
		{"level-0 list over MaxDegree", func(s *Snapshot) { s.Neighbors[7][0] = widen(s.Neighbors[7][0], 9) },
			[]string{"node 7 level 0", "9 neighbors", "Cfg.MaxDegree is 4"}},
		{"upper list over MaxDegree", func(s *Snapshot) {
			e := s.Entry
			s.Neighbors[e][s.MaxLevel] = widen(s.Neighbors[e][s.MaxLevel], 5)
		}, []string{"5 neighbors", "Cfg.MaxDegree is 4"}},
		{"MaxLevel unchecked", func(s *Snapshot) { s.MaxLevel = 1 << 30 },
			[]string{"MaxLevel 1073741824", "entry node"}},
		{"M = 1", func(s *Snapshot) { s.Cfg.M = 1 }, []string{"Cfg", "M >= 2"}},
		{"EfConstruction = 0", func(s *Snapshot) { s.Cfg.EfConstruction = 0 }, []string{"Cfg", "EfConstruction > 0"}},
		{"level above MaxLevel", func(s *Snapshot) {
			s.Levels[3] = s.MaxLevel + 1
			s.Neighbors[3] = make([][]uint32, s.MaxLevel+2)
		}, []string{"Levels[3]", "MaxLevel"}},
		{"negative level", func(s *Snapshot) { s.Levels[3], s.Neighbors[3] = -1, nil }, []string{"Levels[3] = -1"}},
		{"metric out of range", func(s *Snapshot) { s.Metric = vecmath.Metric(9) }, []string{"Metric 9"}},
	} {
		s := *ix.Snapshot()
		s.Levels = append([]int(nil), s.Levels...)
		tc.corrupt(&s)
		got, err := FromSnapshot(ds.Rows(), &s)
		if err == nil || got != nil {
			t.Errorf("%s: loaded (err %v)", tc.name, err)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %q", tc.name, err, w)
			}
		}
	}
	if _, err := FromSnapshot(ds.Rows(), ix.Snapshot()); err != nil {
		t.Fatalf("the uncorrupted snapshot is refused: %v", err)
	}
}

// TestSnapshotRoundTripLive: the wire form is assembled from blocks and
// upper lists and packed back; on a live index that has grown and been
// repaired the round trip loses nothing.
func TestSnapshotRoundTripLive(t *testing.T) {
	ds, ix := buildLive(t, 500, 300)
	ix.Repair([]uint32{5, 120, 410}, func(id uint32) bool { return id != 5 && id != 120 && id != 410 })
	for _, q := range ds.Queries { // more growth after the repair
		appendInsert(t, ix, q)
	}
	snap := ix.Snapshot()
	back, err := FromSnapshot(ix.rows, snap)
	if err != nil {
		t.Fatal(err)
	}
	if again := back.Snapshot(); !reflect.DeepEqual(again, snap) {
		t.Fatal("Snapshot → FromSnapshot → Snapshot changed the graph")
	}
}
