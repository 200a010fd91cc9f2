package engine

import (
	"math"
	"math/rand/v2"
	"testing"

	"ansmet/internal/vecmath"
)

func TestExactEngine(t *testing.T) {
	vecs := [][]float32{{0, 0}, {3, 4}, {6, 8}}
	e := NewExact(vecs, vecmath.L2, vecmath.Float32)
	e.StartQuery([]float32{0, 0})
	r := e.Compare(1, 10)
	if math.Abs(r.Dist-5) > 1e-12 || !r.Accepted {
		t.Errorf("Compare(1) = %+v", r)
	}
	r = e.Compare(2, 5)
	if r.Accepted {
		t.Errorf("vector beyond threshold accepted: %+v", r)
	}
	if r.Lines != e.LinesPerVector() {
		t.Errorf("exact engine must charge a full fetch: %d vs %d", r.Lines, e.LinesPerVector())
	}
}

func TestExactLineCount(t *testing.T) {
	cases := []struct {
		dim   int
		elem  vecmath.ElemType
		lines int
	}{
		{128, vecmath.Uint8, 2},   // 128 B
		{128, vecmath.Float32, 8}, // 512 B
		{960, vecmath.Float32, 60},
		{100, vecmath.Int8, 2}, // 100 B -> 2 lines
		{1, vecmath.Uint8, 1},
	}
	for _, c := range cases {
		vecs := [][]float32{make([]float32, c.dim)}
		e := NewExact(vecs, vecmath.L2, c.elem)
		if e.LinesPerVector() != c.lines {
			t.Errorf("%d-dim %v: %d lines, want %d", c.dim, c.elem, e.LinesPerVector(), c.lines)
		}
	}
}

func TestResultTotalLines(t *testing.T) {
	r := Result{Lines: 3, BackupLines: 2}
	if r.TotalLines() != 5 {
		t.Errorf("TotalLines = %d", r.TotalLines())
	}
}

// TestDistancesMatchCompare: Distances over every batch length from 0 to
// 9 — whole four-row calls and 1–3 padded leftovers — stores, bitwise,
// the distance Compare reports for each id, for every element type and
// metric.
func TestDistancesMatchCompare(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	for elem := vecmath.Uint8; elem <= vecmath.Float32; elem++ {
		for _, m := range []vecmath.Metric{vecmath.L2, vecmath.InnerProduct} {
			vecs := make([][]float32, 12)
			for i := range vecs {
				vecs[i] = make([]float32, 37)
				for j := range vecs[i] {
					vecs[i][j] = elem.Quantize(float32(r.IntN(200)) - 50)
				}
			}
			e := NewExact(vecs, m, elem)
			e.StartQuery(vecs[3])
			for n := 0; n <= 9; n++ {
				ids := make([]uint32, n)
				for i := range ids {
					ids[i] = uint32(r.IntN(len(vecs)))
				}
				got := e.Distances(ids, nil)
				if len(got) != n {
					t.Fatalf("%v/%v: %d distances for %d ids", elem, m, len(got), n)
				}
				for i, id := range ids {
					if want := e.Compare(id, math.Inf(1)).Dist; math.Float64bits(got[i]) != math.Float64bits(want) {
						t.Fatalf("%v/%v: batch of %d, id %d: Distances %v, Compare %v", elem, m, n, id, got[i], want)
					}
				}
			}
		}
	}
}

// TestScreenBound: the screen's bound is −top for the dot, and for L2 the
// largest float64 whose square root is at most top — over tops drawn from
// every exponent, the squares of float64s and the values either side of
// them, zero and the largest finite value — so a kernel value past it is
// exactly a distance above top. A NaN top gives a NaN bound, which clears
// nothing, and +Inf gives +Inf.
func TestScreenBound(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 49))
	tops := []float64{0, math.SmallestNonzeroFloat64, 1, 2, math.MaxFloat64, math.Sqrt(math.MaxFloat64)}
	for range 2000 {
		top := math.Ldexp(rng.Float64()+0.5, rng.IntN(2000)-1000)
		tops = append(tops, top, math.Nextafter(top, 0), math.Nextafter(top, math.Inf(1)))
		if s := math.Sqrt(top); s*s == top {
			tops = append(tops, s)
		}
	}
	for _, top := range tops {
		if b := screenBound(vecmath.InnerProduct, top); b != -top {
			t.Fatalf("dot: screenBound(%v) = %v, want %v", top, b, -top)
		}
		u := screenBound(vecmath.L2, top)
		if !(math.Sqrt(u) <= top) || math.Sqrt(math.Nextafter(u, math.Inf(1))) <= top {
			t.Fatalf("L2: screenBound(%v) = %v: sqrt %v, sqrt of the next float64 %v", top, u, math.Sqrt(u), math.Sqrt(math.Nextafter(u, math.Inf(1))))
		}
	}
	if b := screenBound(vecmath.L2, math.NaN()); !math.IsNaN(b) {
		t.Fatalf("L2: screenBound(NaN) = %v", b)
	}
	if b := screenBound(vecmath.L2, math.Inf(1)); !math.IsInf(b, 1) {
		t.Fatalf("L2: screenBound(+Inf) = %v", b)
	}
}
