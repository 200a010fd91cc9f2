package dataset

import (
	"math"
	"strings"
	"testing"

	"ansmet/internal/stats"
	"ansmet/internal/vecmath"
)

func TestProfilesMatchTable2(t *testing.T) {
	want := []struct {
		name   string
		metric vecmath.Metric
		elem   vecmath.ElemType
		dim    int
	}{
		{"SIFT", vecmath.L2, vecmath.Uint8, 128},
		{"BigANN", vecmath.L2, vecmath.Uint8, 128},
		{"SPACEV", vecmath.L2, vecmath.Int8, 100},
		{"DEEP", vecmath.L2, vecmath.Float32, 96},
		{"GloVe", vecmath.InnerProduct, vecmath.Float32, 100},
		{"Txt2Img", vecmath.InnerProduct, vecmath.Float32, 200},
		{"GIST", vecmath.L2, vecmath.Float32, 960},
	}
	if len(Profiles) != len(want) {
		t.Fatalf("%d profiles, want %d", len(Profiles), len(want))
	}
	for i, w := range want {
		p := Profiles[i]
		if p.Name != w.name || p.Metric != w.metric || p.Elem != w.elem || p.Dim != w.dim {
			t.Errorf("profile %d = %s/%v/%v/%d, want %s/%v/%v/%d",
				i, p.Name, p.Metric, p.Elem, p.Dim, w.name, w.metric, w.elem, w.dim)
		}
	}
}

func TestProfileByName(t *testing.T) {
	if ProfileByName("GIST").Dim != 960 {
		t.Error("GIST lookup failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown profile did not panic")
		}
	}()
	ProfileByName("nope")
}

// TestParseProfile: every profile parses by its exact name; anything else is
// an error that lists them all.
func TestParseProfile(t *testing.T) {
	for _, c := range []struct {
		name string
		ok   bool
	}{
		{"SIFT", true},
		{"GloVe", true},
		{"GIST", true},
		{"Nope", false},
		{"sift", false},
		{"", false},
	} {
		p, err := ParseProfile(c.name)
		if (err == nil) != c.ok {
			t.Fatalf("ParseProfile(%q): err %v, want ok=%v", c.name, err, c.ok)
		}
		if c.ok && p.Name != c.name {
			t.Fatalf("ParseProfile(%q) = %s", c.name, p.Name)
		}
		if !c.ok {
			for _, want := range Profiles {
				if !strings.Contains(err.Error(), want.Name) {
					t.Fatalf("ParseProfile(%q): error %q does not list %s", c.name, err, want.Name)
				}
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := ProfileByName("SIFT")
	a := Generate(p, 50, 5, 7)
	b := Generate(p, 50, 5, 7)
	for i := range a.Vectors {
		for d := range a.Vectors[i] {
			if a.Vectors[i][d] != b.Vectors[i][d] {
				t.Fatal("same seed produced different vectors")
			}
		}
	}
	c := Generate(p, 50, 5, 8)
	diff := false
	for i := range a.Vectors {
		for d := range a.Vectors[i] {
			if a.Vectors[i][d] != c.Vectors[i][d] {
				diff = true
			}
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGenerateRepresentable(t *testing.T) {
	for _, p := range Profiles {
		ds := Generate(p, 30, 3, 1)
		if len(ds.Vectors) != 30 || len(ds.Queries) != 3 {
			t.Fatalf("%s: wrong counts", p.Name)
		}
		for _, v := range ds.Vectors {
			if len(v) != p.Dim {
				t.Fatalf("%s: dim %d, want %d", p.Name, len(v), p.Dim)
			}
			for _, x := range v {
				if p.Elem.Quantize(x) != x {
					t.Fatalf("%s: value %v not representable in %v", p.Name, x, p.Elem)
				}
				if math.IsNaN(float64(x)) {
					t.Fatalf("%s: NaN generated", p.Name)
				}
			}
		}
	}
}

func TestGenerateRangeRespected(t *testing.T) {
	for _, p := range Profiles {
		if p.NormalizeVectors {
			continue // normalization rescales values
		}
		ds := Generate(p, 100, 0, 3)
		for _, v := range ds.Vectors {
			for _, x := range v {
				if float64(x) < p.ClampLo-0.5 || float64(x) > p.ClampHi+0.5 {
					t.Fatalf("%s: value %v outside clamp [%v,%v]", p.Name, x, p.ClampLo, p.ClampHi)
				}
			}
		}
	}
}

func TestClusteredStructure(t *testing.T) {
	// Vectors must be closer to their nearest neighbors than to random
	// vectors on average — i.e. the mixture produces real cluster structure.
	p := ProfileByName("DEEP")
	ds := Generate(p, 300, 0, 5)
	r := stats.NewRNG(9)
	nnSum, randSum := 0.0, 0.0
	for i := 0; i < 50; i++ {
		q := ds.Vectors[r.Intn(len(ds.Vectors))]
		nn := ds.BruteForceKNN(q, 5)
		nnSum += nn[4].Dist // 5th neighbor (skip self at rank 0)
		j := r.Intn(len(ds.Vectors))
		randSum += p.Metric.Distance(q, ds.Vectors[j])
	}
	if nnSum >= randSum {
		t.Errorf("no cluster structure: nn dist sum %v >= random %v", nnSum, randSum)
	}
}

func TestBruteForceKNNSorted(t *testing.T) {
	p := ProfileByName("SIFT")
	ds := Generate(p, 200, 1, 11)
	nn := ds.BruteForceKNN(ds.Queries[0], 10)
	if len(nn) != 10 {
		t.Fatalf("got %d neighbors", len(nn))
	}
	for i := 1; i < len(nn); i++ {
		if nn[i].Dist < nn[i-1].Dist {
			t.Fatal("neighbors not sorted")
		}
	}
	// Exhaustive check of the top-1.
	best := math.Inf(1)
	var bestID uint32
	for i, v := range ds.Vectors {
		d := p.Metric.Distance(ds.Queries[0], v)
		if d < best {
			best, bestID = d, uint32(i)
		}
	}
	if nn[0].ID != bestID {
		t.Errorf("top-1 = %d, want %d", nn[0].ID, bestID)
	}
}

func TestBruteForceKNNClampsK(t *testing.T) {
	p := ProfileByName("SIFT")
	ds := Generate(p, 5, 1, 11)
	if got := len(ds.BruteForceKNN(ds.Queries[0], 50)); got != 5 {
		t.Errorf("k larger than N returned %d results", got)
	}
}

func TestRecallAtK(t *testing.T) {
	truth := []uint32{1, 2, 3, 4}
	if r := RecallAtK([]uint32{1, 2, 3, 4}, truth); r != 1 {
		t.Errorf("perfect recall = %v", r)
	}
	if r := RecallAtK([]uint32{1, 2, 9, 8}, truth); r != 0.5 {
		t.Errorf("half recall = %v", r)
	}
	if r := RecallAtK(nil, truth); r != 0 {
		t.Errorf("empty recall = %v", r)
	}
	if r := RecallAtK([]uint32{1}, nil); r != 1 {
		t.Errorf("empty truth recall = %v", r)
	}
}

func TestGroundTruth(t *testing.T) {
	p := ProfileByName("SPACEV")
	ds := Generate(p, 100, 4, 13)
	gt := ds.GroundTruth(3)
	if len(gt) != 4 {
		t.Fatalf("ground truth for %d queries", len(gt))
	}
	for qi, ids := range gt {
		nn := ds.BruteForceKNN(ds.Queries[qi], 3)
		for j := range ids {
			if ids[j] != nn[j].ID {
				t.Fatalf("query %d: gt %v != brute %v", qi, ids, nn)
			}
		}
	}
}

func TestZipfQueryStream(t *testing.T) {
	r := stats.NewRNG(17)
	s := ZipfQueryStream(r, 2.0, 100, 10000)
	counts := make(map[int]int)
	for _, q := range s {
		if q < 0 || q >= 100 {
			t.Fatalf("query index %d out of range", q)
		}
		counts[q]++
	}
	if counts[0] < counts[50]*5 {
		t.Errorf("zipf stream not skewed: head %d vs mid %d", counts[0], counts[50])
	}
}

func TestCodes(t *testing.T) {
	p := ProfileByName("SIFT")
	ds := Generate(p, 20, 0, 19)
	for i, v := range ds.Vectors {
		for d, c := range p.Elem.EncodeVector(v, nil) {
			if got := float32(p.Elem.Decode(c)); got != ds.Vectors[i][d] {
				t.Fatalf("code round trip failed at %d/%d", i, d)
			}
		}
	}
}

// TestPrefixStructure confirms the generated profiles produce the Fig. 3
// bit statistics: a low-entropy common prefix for the prefix-friendly
// datasets (DEEP, GIST, SPACEV), and high first-bit entropy for the
// sign-mixed IP datasets (GloVe).
func TestPrefixStructure(t *testing.T) {
	entropyAt := func(p Profile, bits int) float64 {
		ds := Generate(p, 200, 0, 23)
		counts := make(map[uint32]float64)
		w := uint(p.Elem.Bits())
		for _, v := range ds.Vectors {
			for _, x := range v {
				counts[p.Elem.Encode(x)>>(w-uint(bits))]++
			}
		}
		weights := make([]float64, 0, len(counts))
		for _, c := range counts {
			weights = append(weights, c)
		}
		return stats.Entropy(weights)
	}
	for _, name := range []string{"DEEP", "GIST", "SPACEV"} {
		if e := entropyAt(ProfileByName(name), 2); e > 0.2 {
			t.Errorf("%s: top-2-bit entropy %v, want low-entropy common prefix", name, e)
		}
	}
	if e := entropyAt(ProfileByName("GloVe"), 1); e < 0.4 {
		t.Errorf("GloVe: sign-bit entropy %v, want mixed signs", e)
	}
}
