package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"ansmet/internal/dataset"
	"ansmet/internal/engine"
	"ansmet/internal/hnsw"
	"ansmet/internal/layout"
	"ansmet/internal/prefixelim"
	"ansmet/internal/rows"
	"ansmet/internal/vecmath"
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
			got, lines, _ := eng.ExactKNN(nil, q, 10)
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
		_, lines, _ := eng.ExactKNN(nil, q, 10)
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
	nn, _, _ := eng.ExactKNN(nil, ds.Queries[0], 1)
	want := ds.BruteForceKNN(ds.Queries[0], 1)
	if len(nn) != 1 || nn[0].ID != want[0].ID {
		t.Fatalf("k=1: got %+v, want %+v", nn, want)
	}
	// k larger than the dataset returns everything.
	nn, _, _ = eng.ExactKNN(nil, ds.Queries[0], 100)
	if len(nn) != 50 {
		t.Fatalf("k>N returned %d results", len(nn))
	}
}

// TestScanKNNMatchesExactKNN: the row-major scan — the serving exact route —
// returns ExactKNN's answer bit for bit on the stores the serving designs
// build (plain bit planes under L2 and inner product; a prefix-eliminated
// store whose outliers take the backup re-check), with and without
// tombstones, into a fresh or a reused dst; and its line count is the
// honest full fetch of every live row. The 2 500 rows span three slab
// chunks; the tombstones leave the scan's runs ragged and one run, ids
// [1088, 1152), with no live row; k runs up to past the live count.
func TestScanKNNMatchesExactKNN(t *testing.T) {
	const n = 2500
	for _, name := range []string{"SIFT", "SPACEV", "DEEP", "GloVe"} {
		p := dataset.ProfileByName(name)
		ds := dataset.Generate(p, n, 6, 51)
		sys, err := NewSystem(ds.Rows(), p.Metric, nil, DefaultSystemConfig(NDPETOpt))
		if err != nil {
			t.Fatal(err)
		}
		st := sys.Store
		if name == "SPACEV" && (!st.Prefix.Enabled() || st.NumOutliers() == 0) {
			t.Fatalf("SPACEV store has prefix %d and %d outliers: the backup path is not exercised", st.Prefix.PrefixLen, st.NumOutliers())
		}
		eng := st.NewETEngine(p.Metric)
		rows := engine.NewExactOver(st.rows, p.Metric)
		tomb := NewTombSet()
		var dst []hnsw.Neighbor
		for _, tombs := range []*TombSet{nil, tomb} {
			live := st.Len()
			if tombs != nil {
				for id := uint32(0); id < n; id += 7 {
					tombs.Delete(id)
				}
				for id := uint32(1088); id < 1152; id++ {
					tombs.Delete(id)
				}
				live -= tombs.Count()
			}
			eng.SetTombstones(tombs)
			for qi, q := range ds.Queries {
				for _, k := range []int{1, 10, 1000, n} {
					want, wantLines, _ := eng.ExactKNN(nil, q, k)
					var lines int
					dst, lines, _ = ScanKNN(nil, rows, tombs, q, k, dst)
					if len(dst) != len(want) || len(dst) != min(k, live) {
						t.Fatalf("%s q%d k=%d: %d results, ExactKNN %d, live %d", name, qi, k, len(dst), len(want), live)
					}
					for i := range want {
						if dst[i].ID != want[i].ID || math.Float64bits(dst[i].Dist) != math.Float64bits(want[i].Dist) {
							t.Fatalf("%s q%d k=%d result %d: scan %+v, ExactKNN %+v", name, qi, k, i, dst[i], want[i])
						}
					}
					// ExactKNN saves lines at k = 1 and 10; at k = 1000 the
					// threshold stays loose over most of the scan and it need not.
					if lines != live*rows.FullLines || (k <= 10 && wantLines >= lines) {
						t.Fatalf("%s q%d k=%d: scan %d lines (want %d×%d), ExactKNN %d", name, qi, k, lines, live, rows.FullLines, wantLines)
					}
				}
			}
		}
	}
}

// TestExactKNNCtxCancel: a done channel fired mid-scan stops the exact
// scan within one checkpoint stride and returns best-so-far results;
// a pre-closed channel aborts before any comparison; a channel that never
// fires is byte-identical to the nil (uncancellable) scan. The loop is
// shared, so both compares are held to it: the ET engine's (ExactKNN) and
// the row-major one (ScanKNN).
func TestExactKNNCtxCancel(t *testing.T) {
	p := dataset.ProfileByName("SIFT")
	ds := dataset.Generate(p, 1500, 2, 41)
	st, err := BuildStore(ds.Rows(),
		layout.SimpleHeuristicSchedule(p.Elem), prefixelim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng := st.NewETEngine(p.Metric)
	rows := engine.NewExactOver(st.rows, p.Metric)
	q := ds.Queries[0]
	scansAt := func(k int) map[string]func(done <-chan struct{}) ([]hnsw.Neighbor, int, bool) {
		return map[string]func(done <-chan struct{}) ([]hnsw.Neighbor, int, bool){
			"ExactKNN": func(done <-chan struct{}) ([]hnsw.Neighbor, int, bool) { return eng.ExactKNN(done, q, k) },
			"ScanKNN":  func(done <-chan struct{}) ([]hnsw.Neighbor, int, bool) { return ScanKNN(done, rows, nil, q, k, nil) },
		}
	}
	scans := scansAt(10)
	defer func() { exactScanTestHook = nil }()
	for name, scan := range scans {
		exactScanTestHook = nil

		// A done channel that never fires: identical to the nil-done scan.
		want, wantLines, _ := scan(nil)
		got, gotLines, cancelled := scan(make(chan struct{}))
		if cancelled || gotLines != wantLines || len(got) != len(want) {
			t.Fatalf("%s: idle done diverged: cancelled=%v lines=%d/%d n=%d/%d",
				name, cancelled, gotLines, wantLines, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: result %d: %+v != %+v", name, i, got[i], want[i])
			}
		}

		// Pre-closed done: aborted, nothing scanned.
		closed := make(chan struct{})
		close(closed)
		nn, lines, cancelled := scan(closed)
		if !cancelled || nn != nil || lines != 0 {
			t.Fatalf("%s: pre-closed done: cancelled=%v nn=%v lines=%d", name, cancelled, nn, lines)
		}

		// Fired mid-scan, in the first slab chunk and in the second: the test
		// hook closes done at the checkpoint of id cancelAt, so the scan stops
		// there deterministically and the partial result is exactly the k
		// best of the ids [0, cancelAt) prefix, over cancelAt full fetches.
		for _, cancelAt := range []uint32{512, 1280} {
			mid := make(chan struct{})
			exactScanTestHook = func(id uint32) {
				if id == cancelAt {
					close(mid)
				}
			}
			nn2, lines2, cancelled2 := scan(mid)
			if !cancelled2 {
				t.Fatalf("%s: cancellation at %d never observed", name, cancelAt)
			}
			if len(nn2) != 10 {
				t.Fatalf("%s: partial exact scan at %d returned %d results, want k=10 best-so-far", name, cancelAt, len(nn2))
			}
			if name == "ScanKNN" && lines2 != int(cancelAt)*rows.FullLines {
				t.Fatalf("%s: cancelled at %d after %d lines, want %d×%d", name, cancelAt, lines2, cancelAt, rows.FullLines)
			}
			// Every partial result comes from the scanned prefix, and the set
			// matches a brute-force scan restricted to that prefix.
			wantPrefix := prefixBruteForce(ds, q, int(cancelAt), 10)
			for i, nb := range nn2 {
				if nb.ID >= cancelAt {
					t.Fatalf("%s: partial result %d has id %d beyond the scanned prefix %d", name, i, nb.ID, cancelAt)
				}
				if nb.ID != wantPrefix[i].ID {
					t.Fatalf("%s: partial result %d at %d: id %d, want %d (prefix brute force)", name, i, cancelAt, nb.ID, wantPrefix[i].ID)
				}
			}
		}
	}

	// Checkpoints start once the heap is full: at k = 300 the scan passes id
	// 256 unpolled, so a done closed at the first checkpoint stops it at 512
	// with the 300 best of that prefix.
	for name, scan := range scansAt(300) {
		first := uint32(0)
		mid := make(chan struct{})
		exactScanTestHook = func(id uint32) {
			if first == 0 {
				first = id
				close(mid)
			}
		}
		nn, _, cancelled := scan(mid)
		if !cancelled || first != 512 || len(nn) != 300 {
			t.Fatalf("%s k=300: first checkpoint at %d, cancelled=%v, %d results; want 512, true, 300", name, first, cancelled, len(nn))
		}
		for i, want := range prefixBruteForce(ds, q, 512, 300) {
			if nn[i].ID != want.ID {
				t.Fatalf("%s k=300: result %d: id %d, want %d (prefix brute force)", name, i, nn[i].ID, want.ID)
			}
		}
	}
}

// prefixBruteForce returns the k nearest of the first n dataset vectors,
// computed directly from the raw vectors.
func prefixBruteForce(ds *dataset.Dataset, q []float32, n, k int) []hnsw.Neighbor {
	all := make([]hnsw.Neighbor, n)
	for i := 0; i < n; i++ {
		all[i] = hnsw.Neighbor{ID: uint32(i), Dist: ds.Profile.Metric.Distance(q, ds.Vectors[i])}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Dist != all[b].Dist {
			return all[a].Dist < all[b].Dist
		}
		return all[a].ID < all[b].ID
	})
	return all[:k]
}

// screenRows draws n rows of dim elements of et for the screened scan, in
// the shapes the screen's proof has to hold on: ordinary rows, exact
// duplicates of earlier rows (ties at the top), rows one encoding step from
// an earlier row, subnormals, magnitudes near the type's largest (the
// float32 pass overflows) and rows whose dot with the first query all but
// cancels. Every value is one of et's.
func screenRows(rng *rand.Rand, et vecmath.ElemType, n, dim int, q []float32) [][]float32 {
	maxExp := map[vecmath.ElemType]int{vecmath.Float32: 127, vecmath.Float16: 15, vecmath.BFloat16: 127}[et]
	tiny := map[vecmath.ElemType]float64{vecmath.Float32: 0x1p-140, vecmath.Float16: 0x1p-20, vecmath.BFloat16: 0x1p-130}[et]
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, dim)
		switch shape := rng.Intn(8); {
		case i > 0 && shape == 0:
			copy(v, out[rng.Intn(i)])
		case i > 0 && shape == 1:
			copy(v, out[rng.Intn(i)])
			for j := range v {
				if w := float32(et.Decode(et.Encode(v[j]) + uint32(rng.Intn(3)) - 1)); w-w == 0 {
					v[j] = w
				}
			}
		case shape == 2:
			for j := range v {
				v[j] = float32(tiny * rng.NormFloat64())
			}
		case shape == 3:
			for j := range v {
				v[j] = float32(math.Ldexp(1+rng.Float64(), maxExp-rng.Intn(2)) * float64(1-2*rng.Intn(2)))
			}
		case shape == 4 && q != nil:
			for j := range v {
				if q[j] != 0 {
					v[j] = float32(float64(1-2*(j%2)) / float64(q[j]) * (1 + 1e-3*rng.NormFloat64()))
				}
			}
		default:
			for j := range v {
				v[j] = float32(rng.NormFloat64())
			}
		}
		for j := range v {
			v[j] = et.Quantize(v[j])
		}
		out[i] = v
	}
	return out
}

// TestScanScreenMatchesExactKNN: the screened scan returns ExactKNN's
// answer bit for bit, over the full fetch of every live row, for every
// float type under L2, inner product and cosine, on rows drawn to strain
// the screen's proof (screenRows) — 1 001 of them, so the last run holds 41
// rows, not a multiple of four — with tombstones inside screened runs and
// one whole screened run tombstoned, for dims with and without a tail step.
// Where the kernel level has the screen, it must also have run and
// rejected rows. On GloVe at n = 10 000 it must pass at most 2 % of the
// rows of each query to the float64 kernel: a loose margin keeps the
// answers right and silently loses the screen's gain.
func TestScanScreenMatchesExactKNN(t *testing.T) {
	defer func() { ScanScreenHook = nil }()
	var screenedRuns, survivors, live int
	ScanScreenHook = func(l, s int) { screenedRuns, live, survivors = screenedRuns+1, live+l, survivors+s }
	const n = 1001
	rng := rand.New(rand.NewSource(4901))
	for _, et := range []vecmath.ElemType{vecmath.Float32, vecmath.Float16, vecmath.BFloat16} {
		for _, dim := range []int{13, 64} {
			qs := make([][]float32, 4)
			for i := range qs {
				qs[i] = screenRows(rng, et, 1, dim, nil)[0]
			}
			vecs := screenRows(rng, et, n, dim, qs[0])
			qs = append(qs, vecs[5], vecs[n-1]) // queries equal to rows
			rs := rows.MustPack(vecs, et)
			st, err := BuildStore(rs, layout.SimpleHeuristicSchedule(et), prefixelim.Config{})
			if err != nil {
				t.Fatal(err)
			}
			tomb := NewTombSet()
			for id := uint32(3); id < n; id += 5 {
				tomb.Delete(id)
			}
			for id := uint32(640); id < 704; id++ {
				tomb.Delete(id)
			}
			for _, m := range []vecmath.Metric{vecmath.L2, vecmath.InnerProduct, vecmath.Cosine} {
				eng := st.NewETEngine(m)
				ex := engine.NewExactOver(rs, m)
				screenedRuns = 0
				for _, tombs := range []*TombSet{nil, tomb} {
					eng.SetTombstones(tombs)
					wantLive := n
					if tombs != nil {
						wantLive -= tombs.Count()
					}
					for qi, q := range qs {
						for _, k := range []int{1, 10, 100} {
							want, _, _ := eng.ExactKNN(nil, q, k)
							got, lines, _ := ScanKNN(nil, ex, tombs, q, k, nil)
							if len(got) != len(want) || lines != wantLive*ex.FullLines {
								t.Fatalf("%v dim %d %v q%d k=%d: %d results over %d lines, ExactKNN %d, want %d×%d lines", et, dim, m, qi, k, len(got), lines, len(want), wantLive, ex.FullLines)
							}
							for i := range want {
								if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
									t.Fatalf("%v dim %d %v q%d k=%d result %d: scan %+v, ExactKNN %+v", et, dim, m, qi, k, i, got[i], want[i])
								}
							}
						}
					}
				}
				if vecmath.Active().RowScreen(et, m) != nil && screenedRuns == 0 {
					t.Fatalf("%v dim %d %v: the %s level has a screen and no run took it", et, dim, m, vecmath.Active().Name)
				}
			}
		}
	}

	if vecmath.Active().RowScreen(vecmath.Float32, vecmath.InnerProduct) == nil {
		t.Logf("no fp32 screen at the %s level: the tightness guard does not apply", vecmath.Active().Name)
		return
	}
	p := dataset.ProfileByName("GloVe")
	ds := dataset.Generate(p, 10000, 8, 7)
	ex := engine.NewExactOver(ds.Rows(), p.Metric)
	var dst []hnsw.Neighbor
	for qi, q := range ds.Queries {
		live, survivors = 0, 0
		dst, _, _ = ScanKNN(nil, ex, nil, q, 10, dst)
		if survivors > len(ds.Vectors)/50 {
			t.Errorf("GloVe q%d: %d of %d rows survived the screen (%d screened), more than 2 %%", qi, survivors, len(ds.Vectors), live)
		}
		t.Logf("GloVe q%d: %d survivors of %d screened rows", qi, survivors, live)
	}
}
