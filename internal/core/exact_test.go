package core

import (
	"testing"

	"ansmet/internal/dataset"
	"ansmet/internal/layout"
	"ansmet/internal/prefixelim"
)

func TestExactKNNMatchesBruteForce(t *testing.T) {
	for _, name := range []string{"SIFT", "DEEP", "GloVe"} {
		p := dataset.ProfileByName(name)
		ds := dataset.Generate(p, 700, 6, 31)
		st, err := BuildStore(ds.Rows(),
			layout.SimpleHeuristicSchedule(p.Elem), prefixelim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		eng := st.NewETEngine(p.Metric)
		full := st.Len() * st.SlotLines()
		for qi, q := range ds.Queries {
			want := ds.BruteForceKNN(q, 10)
			got, lines := eng.ExactKNN(q, 10)
			if len(got) != len(want) {
				t.Fatalf("%s q%d: %d results, want %d", name, qi, len(got), len(want))
			}
			for j := range got {
				if got[j].ID != want[j].ID {
					t.Fatalf("%s q%d result %d: id %d (d=%v), want %d (d=%v)",
						name, qi, j, got[j].ID, got[j].Dist, want[j].ID, want[j].Dist)
				}
			}
			if lines >= full {
				t.Errorf("%s q%d: exact scan saved nothing (%d of %d lines)", name, qi, lines, full)
			}
		}
	}
}

func TestExactKNNSavesSubstantially(t *testing.T) {
	// On L2 data with good bit structure, the exact scan should skip a
	// large share of the data (the paper's "no accuracy loss even in
	// accurate search" claim is only interesting if the savings are real).
	p := dataset.ProfileByName("DEEP")
	ds := dataset.Generate(p, 1500, 4, 33)
	st, err := BuildStore(ds.Rows(),
		layout.SimpleHeuristicSchedule(p.Elem), prefixelim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng := st.NewETEngine(p.Metric)
	full := st.Len() * st.SlotLines()
	totalSaved := 0.0
	for _, q := range ds.Queries {
		_, lines := eng.ExactKNN(q, 10)
		totalSaved += 1 - float64(lines)/float64(full)
	}
	avg := totalSaved / float64(len(ds.Queries))
	if avg < 0.25 {
		t.Errorf("exact KNN saved only %.0f%% of lines on DEEP-like data", avg*100)
	}
	t.Logf("exact KNN line savings: %.0f%%", avg*100)
}

func TestExactKNNSmallK(t *testing.T) {
	p := dataset.ProfileByName("SPACEV")
	ds := dataset.Generate(p, 50, 2, 35)
	st, _ := BuildStore(ds.Rows(), layout.SimpleHeuristicSchedule(p.Elem), prefixelim.Config{})
	eng := st.NewETEngine(p.Metric)
	nn, _ := eng.ExactKNN(ds.Queries[0], 1)
	want := ds.BruteForceKNN(ds.Queries[0], 1)
	if len(nn) != 1 || nn[0].ID != want[0].ID {
		t.Fatalf("k=1: got %+v, want %+v", nn, want)
	}
	// k larger than the dataset returns everything.
	nn, _ = eng.ExactKNN(ds.Queries[0], 100)
	if len(nn) != 50 {
		t.Fatalf("k>N returned %d results", len(nn))
	}
}
