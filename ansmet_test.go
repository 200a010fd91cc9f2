package ansmet_test

import (
	"context"
	"math"
	"testing"

	"ansmet"
	"ansmet/internal/core"
	"ansmet/internal/dataset"
	"ansmet/internal/sim"
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
		res, err := db.Do(context.Background(), &ansmet.Query{Vector: q, K: 10})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Neighbors) != 10 {
			t.Fatalf("got %d results", len(res.Neighbors))
		}
		ids := make([]uint32, len(res.Neighbors))
		for i, n := range res.Neighbors {
			ids[i] = n.ID
		}
		sum += ansmet.RecallAtK(ids, gt[qi])
	}
	if recall := sum / float64(len(gt)); recall < 0.8 {
		t.Errorf("recall %v < 0.8", recall)
	}
	if st := db.Stats(); st.Vectors != 600 || st.Dim != 96 {
		t.Errorf("stats = %+v", st)
	}
	// The searches above ran on the host beam; the NDP model built over the
	// database holds the preprocessing facts.
	if st := newModel(t, db).Store; st.Prefix.PrefixLen == 0 || st.SpaceSavedFraction() <= 0 {
		t.Errorf("expected prefix elimination on DEEP-like data: prefix %d bits, saves %v", st.Prefix.PrefixLen, st.SpaceSavedFraction())
	}
}

// newModel builds the NDP-ETOpt model over db at the default seed, the one
// db's own options keep here.
func newModel(t testing.TB, db *ansmet.Database) *core.System {
	t.Helper()
	sys, err := db.NewSystem(core.DefaultSystemConfig(core.NDPETOpt))
	if err != nil {
		t.Fatal(err)
	}
	return sys
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
	m, err := sim.NewModel(newModel(t, db), sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	run, err := m.Run(ds.Queries, 10, 40)
	if err != nil {
		t.Fatal(err)
	}
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
	if _, err := db.Do(context.Background(), &ansmet.Query{Vector: []float32{1, 2}, K: 3}); err == nil {
		t.Error("dimension mismatch should fail")
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

// exactSearch runs the exact route: the brute-force top-k and the lines it
// read.
func exactSearch(db *ansmet.Database, q []float32, k int) ([]ansmet.Neighbor, int, error) {
	res, err := db.Do(context.Background(), &ansmet.Query{Vector: q, K: k, Route: ansmet.RouteExact})
	return res.Neighbors, res.Lines, err
}
