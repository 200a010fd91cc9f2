package ansmet_test

import (
	"context"
	"math"
	"testing"

	"ansmet"
	"ansmet/internal/dataset"
)

func makeVectors(n, dim int, seedish float32) [][]float32 {
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(math.Sin(float64(i*dim+d))*0.3+0.5) * seedish
		}
		out[i] = v
	}
	return out
}

func TestDatabaseBasics(t *testing.T) {
	p := dataset.ProfileByName("DEEP")
	ds := dataset.Generate(p, 600, 8, 5)
	db, err := ansmet.New(ds.Vectors, ansmet.Options{
		Metric: ansmet.L2, Elem: ansmet.Float32, EfConstruction: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 600 {
		t.Fatalf("Len = %d", db.Len())
	}
	gt := ds.GroundTruth(10)
	sum := 0.0
	for qi, q := range ds.Queries {
		res, err := db.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 10 {
			t.Fatalf("got %d results", len(res))
		}
		ids := make([]uint32, len(res))
		for i, n := range res {
			ids[i] = n.ID
		}
		sum += ansmet.RecallAtK(ids, gt[qi])
	}
	if recall := sum / float64(len(gt)); recall < 0.8 {
		t.Errorf("recall %v < 0.8", recall)
	}
	// The searches above ran on the host beam and built no NDP model; Stats
	// reports the model's facts once something has (here System).
	if st := db.Stats(); st.Vectors != 600 || st.LinesPerVector != 0 || st.PrefixBits != 0 {
		t.Errorf("stats before the model is built = %+v", st)
	}
	db.System()
	st := db.Stats()
	if st.Vectors != 600 || st.Dim != 96 || st.Design != ansmet.NDPETOpt {
		t.Errorf("stats = %+v", st)
	}
	if st.PrefixBits == 0 || st.SpaceSavedPercent <= 0 {
		t.Errorf("expected prefix elimination on DEEP-like data: %+v", st)
	}
}

func TestDatabaseDesignsAgree(t *testing.T) {
	p := dataset.ProfileByName("SIFT")
	ds := dataset.Generate(p, 400, 4, 9)
	var want [][]ansmet.Neighbor
	for _, d := range []ansmet.Design{ansmet.CPUBase, ansmet.NDPBase, ansmet.NDPETOpt} {
		db, err := ansmet.New(ds.Vectors, ansmet.Options{
			Metric: ansmet.L2, Elem: ansmet.Uint8,
			EfConstruction: 60, Design: ansmet.UseDesign(d),
		})
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		var got [][]ansmet.Neighbor
		for _, q := range ds.Queries {
			res, err := db.SearchInto(q, 5, 40, nil)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, res)
		}
		if want == nil {
			want = got
			continue
		}
		for qi := range got {
			for j := range got[qi] {
				if got[qi][j].ID != want[qi][j].ID {
					t.Fatalf("%v: results diverge from CPU-Base at query %d", d, qi)
				}
			}
		}
	}
}

func TestDatabaseRunReport(t *testing.T) {
	p := dataset.ProfileByName("SPACEV")
	ds := dataset.Generate(p, 500, 6, 3)
	db, err := ansmet.New(ds.Vectors, ansmet.Options{
		Metric: ansmet.L2, Elem: ansmet.Int8, EfConstruction: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := db.Run(ds.Queries, 10, 40)
	if run.Report.QPS() <= 0 || run.Report.MakespanNs <= 0 {
		t.Error("missing timing report")
	}
	if len(run.Results) != 6 {
		t.Errorf("%d result sets", len(run.Results))
	}
}

func TestDatabaseValidation(t *testing.T) {
	if _, err := ansmet.New(nil, ansmet.Options{}); err == nil {
		t.Error("empty dataset should fail")
	}
	ragged := [][]float32{{1, 2}, {1}}
	if _, err := ansmet.New(ragged, ansmet.Options{Elem: ansmet.Float32}); err == nil {
		t.Error("ragged dataset should fail")
	}
	db, err := ansmet.New(makeVectors(50, 8, 1), ansmet.Options{
		Elem: ansmet.Float32, EfConstruction: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Search([]float32{1, 2}, 3); err == nil {
		t.Error("dimension mismatch should fail")
	}
}

func TestCosinePipeline(t *testing.T) {
	vecs := makeVectors(300, 24, 1)
	for _, v := range vecs {
		ansmet.Normalize(v)
	}
	db, err := ansmet.New(vecs, ansmet.Options{
		Metric: ansmet.Cosine, Elem: ansmet.Float32, EfConstruction: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := make([]float32, 24)
	copy(q, vecs[7])
	res, err := db.Search(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != 7 {
		t.Errorf("self-query returned %d, want 7", res[0].ID)
	}
}

func TestQuantizationOnIngest(t *testing.T) {
	vecs := makeVectors(100, 8, 100)
	db, err := ansmet.New(vecs, ansmet.Options{
		Metric: ansmet.L2, Elem: ansmet.Uint8, EfConstruction: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := db.Vector(0)
	if !ok {
		t.Fatal("vector 0 missing")
	}
	for _, x := range v {
		if x != float32(int(x)) || x < 0 || x > 255 {
			t.Fatalf("stored value %v not uint8-representable", x)
		}
	}
}

// TestExactSearchFacade (named for the ExactSearch wrapper the exact route
// replaced): the exact route is one full scan of the rows on every design —
// the same answers and the same line count on an ET design and a Base one —
// and the tiered route at budget 1 returns those answers from fewer lines.
func TestExactSearchFacade(t *testing.T) {
	p := dataset.ProfileByName("DEEP")
	ds := dataset.Generate(p, 400, 3, 51)
	et, err := ansmet.New(ds.Vectors, ansmet.Options{
		Metric: p.Metric, Elem: p.Elem, EfConstruction: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	base, err := ansmet.New(ds.Vectors, ansmet.Options{
		Metric: p.Metric, Elem: p.Elem, EfConstruction: 40,
		Design: ansmet.UseDesign(ansmet.CPUBase),
	})
	if err != nil {
		t.Fatal(err)
	}
	base.System() // Stats reports the model's line geometry once it is built
	for _, q := range ds.Queries {
		a, la, err := exactSearch(et, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, lb, err := exactSearch(base, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		// The exact route is the same full scan of row-major vectors on every
		// design; the paper's §4.1 point — early termination works for exact
		// kNN too — is the tiered route at budget 1: the same answer from a
		// fraction of the lines.
		c, st, err := et.TieredSearchInto(q, 10, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j := range a {
			if a[j] != b[j] || a[j] != c[j] {
				t.Fatalf("exact answers disagree: ET scan %+v, Base scan %+v, ET tiered %+v", a[j], b[j], c[j])
			}
		}
		if la != lb || la != et.Len()*base.Stats().LinesPerVector {
			t.Errorf("exact scans fetched %d (ET design) and %d (Base) lines, want the full %d×%d",
				la, lb, et.Len(), base.Stats().LinesPerVector)
		}
		if lt := st.BoundLines + st.RerankLines; lt >= lb {
			t.Errorf("tiered at budget 1 fetched %d lines, a full scan %d — no savings", lt, lb)
		}
	}
	if _, _, err := exactSearch(et, []float32{1}, 3); err == nil {
		t.Error("dimension mismatch should fail")
	}
}

func TestSearchManyMatchesSerial(t *testing.T) {
	p := dataset.ProfileByName("SIFT")
	ds := dataset.Generate(p, 600, 12, 71)
	db, err := ansmet.New(ds.Vectors, ansmet.Options{
		Metric: p.Metric, Elem: p.Elem, EfConstruction: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := db.DoMany(context.Background(), ds.Queries, &ansmet.Query{K: 10, Ef: 50, Route: ansmet.RouteNDP}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range ds.Queries {
		ser, err := db.SearchInto(q, 10, 50, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(par[qi]) != len(ser) {
			t.Fatalf("query %d: %d vs %d results", qi, len(par[qi]), len(ser))
		}
		for j := range ser {
			if par[qi][j] != ser[j] {
				t.Fatalf("query %d result %d: parallel %+v != serial %+v", qi, j, par[qi][j], ser[j])
			}
		}
	}
}

// exactSearch runs the exact route: the brute-force top-k and the lines it
// read.
func exactSearch(db *ansmet.Database, q []float32, k int) ([]ansmet.Neighbor, int, error) {
	res, err := db.Do(context.Background(), &ansmet.Query{Vector: q, K: k, Route: ansmet.RouteExact})
	return res.Neighbors, res.Lines, err
}

// searchFiltered is Do on the ndp route with a Filter at the default beam
// width.
func searchFiltered(db *ansmet.Database, q []float32, k int, filter func(uint32) bool) ([]ansmet.Neighbor, error) {
	res, err := db.Do(context.Background(), &ansmet.Query{Vector: q, K: k, Route: ansmet.RouteNDP, Filter: filter})
	return res.Neighbors, err
}

func TestSearchFilteredFacade(t *testing.T) {
	p := dataset.ProfileByName("SIFT")
	ds := dataset.Generate(p, 400, 4, 73)
	db, err := ansmet.New(ds.Vectors, ansmet.Options{
		Metric: p.Metric, Elem: p.Elem, EfConstruction: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := searchFiltered(db, ds.Queries[0], 5, func(id uint32) bool { return id >= 200 })
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range res {
		if n.ID < 200 {
			t.Fatalf("filter violated: %d", n.ID)
		}
	}
}
