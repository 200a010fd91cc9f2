package vecmath

import (
	"math"
	"testing"

	"ansmet/internal/stats"
)

func TestDistanceL2(t *testing.T) {
	a := []float32{1, 2}
	b := []float32{4, 6}
	if got := L2.Distance(a, b); math.Abs(got-5) > 1e-12 {
		t.Errorf("L2 distance = %v, want 5", got)
	}
	if got := L2.Distance(a, a); got != 0 {
		t.Errorf("L2 self distance = %v, want 0", got)
	}
}

func TestDistanceIP(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6}
	if got := InnerProduct.Distance(a, b); got != -32 {
		t.Errorf("IP distance = %v, want -32", got)
	}
	if got := Cosine.Distance(a, b); got != -32 {
		t.Errorf("cosine behaves as IP at runtime; got %v", got)
	}
}

func TestDistancePaperExample(t *testing.T) {
	// Fig. 2(c): d(Q, S0) with Q=(2,2) and S0=(0,1) -> sqrt(4+1)=2.236.
	q := []float32{2, 2}
	s0 := []float32{0, 1}
	if got := L2.Distance(q, s0); math.Abs(got-2.2360679) > 1e-6 {
		t.Errorf("paper example distance = %v, want 2.236", got)
	}
}

func TestDistanceMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	L2.Distance([]float32{1}, []float32{1, 2})
}

func TestNormalize(t *testing.T) {
	v := []float32{3, 4}
	Normalize(v)
	if math.Abs(float64(v[0])-0.6) > 1e-6 || math.Abs(float64(v[1])-0.8) > 1e-6 {
		t.Errorf("Normalize = %v, want [0.6 0.8]", v)
	}
	z := []float32{0, 0}
	Normalize(z)
	if z[0] != 0 || z[1] != 0 {
		t.Error("Normalize of zero vector should be a no-op")
	}
}

func TestL2IntervalContrib(t *testing.T) {
	cases := []struct {
		q, lo, hi, want float64
	}{
		{5, 0, 10, 0},  // inside
		{5, 5, 5, 0},   // point equal
		{2, 5, 10, 9},  // below: (5-2)^2
		{12, 5, 10, 4}, // above: (12-10)^2
		{5, 6, math.Inf(1), 1},
		{5, math.Inf(-1), 4, 1},
		{5, math.Inf(-1), math.Inf(1), 0},
	}
	for _, c := range cases {
		if got := L2IntervalContrib(c.q, c.lo, c.hi); got != c.want {
			t.Errorf("L2IntervalContrib(%v,[%v,%v]) = %v, want %v", c.q, c.lo, c.hi, got, c.want)
		}
	}
}

func TestIPIntervalUpper(t *testing.T) {
	cases := []struct {
		q, lo, hi, want float64
	}{
		{2, 1, 3, 6},   // positive q takes hi
		{-2, 1, 3, -2}, // negative q takes lo
		{0, -100, 100, 0},
		{0, math.Inf(-1), math.Inf(1), 0}, // guard against Inf*0
		{3, math.Inf(-1), math.Inf(1), math.Inf(1)},
	}
	for _, c := range cases {
		if got := IPIntervalUpper(c.q, c.lo, c.hi); got != c.want {
			t.Errorf("IPIntervalUpper(%v,[%v,%v]) = %v, want %v", c.q, c.lo, c.hi, got, c.want)
		}
	}
}

// TestLowerBoundSoundness is the central property: for random vectors and
// random per-dimension known-bit counts, the interval lower bound never
// exceeds the true distance, and with all bits known it equals it.
func TestLowerBoundSoundness(t *testing.T) {
	r := stats.NewRNG(909)
	for _, et := range allTypes {
		for _, m := range []Metric{L2, InnerProduct} {
			for trial := 0; trial < 500; trial++ {
				dim := 1 + r.Intn(16)
				q := make([]float32, dim)
				v := make([]float32, dim)
				lo := make([]float64, dim)
				hi := make([]float64, dim)
				w := et.Bits()
				for d := 0; d < dim; d++ {
					q[d] = randRepresentable(r, et)
					v[d] = randRepresentable(r, et)
					known := r.Intn(w + 1)
					code := et.Encode(v[d])
					lo[d], hi[d] = et.Interval(code>>uint(w-known), known)
				}
				lb := lowerBoundFromIntervals(m, q, lo, hi)
				true := m.Distance(q, v)
				if lb > true+1e-6*math.Max(1, math.Abs(true)) {
					t.Fatalf("%v/%v: LB %v exceeds true distance %v (q=%v v=%v)",
						et, m, lb, true, q, v)
				}
				// All bits known -> exact.
				for d := 0; d < dim; d++ {
					code := et.Encode(v[d])
					lo[d], hi[d] = et.Interval(code, w)
				}
				exact := lowerBoundFromIntervals(m, q, lo, hi)
				if math.Abs(exact-true) > 1e-6*math.Max(1, math.Abs(true)) {
					t.Fatalf("%v/%v: full-known LB %v != true %v", et, m, exact, true)
				}
			}
		}
	}
}

// TestLowerBoundMonotonic checks that revealing more bits never loosens the
// bound (fundamental for incremental ET).
func TestLowerBoundMonotonic(t *testing.T) {
	r := stats.NewRNG(910)
	for _, et := range allTypes {
		for _, m := range []Metric{L2, InnerProduct} {
			for trial := 0; trial < 200; trial++ {
				dim := 4
				q := make([]float32, dim)
				v := make([]float32, dim)
				codes := make([]uint32, dim)
				for d := 0; d < dim; d++ {
					q[d] = randRepresentable(r, et)
					v[d] = randRepresentable(r, et)
					codes[d] = et.Encode(v[d])
				}
				w := et.Bits()
				prev := math.Inf(-1)
				lo := make([]float64, dim)
				hi := make([]float64, dim)
				for known := 0; known <= w; known++ {
					for d := 0; d < dim; d++ {
						lo[d], hi[d] = et.Interval(codes[d]>>uint(w-known), known)
					}
					lb := lowerBoundFromIntervals(m, q, lo, hi)
					if lb < prev-1e-9 {
						t.Fatalf("%v/%v: bound decreased from %v to %v at %d bits",
							et, m, prev, lb, known)
					}
					prev = lb
				}
			}
		}
	}
}

func TestMetricString(t *testing.T) {
	if L2.String() != "L2" || InnerProduct.String() != "IP" || Cosine.String() != "cosine" {
		t.Error("unexpected metric names")
	}
}

// lowerBoundFromIntervals computes the metric's distance lower bound given
// per-dimension value intervals for the partially known vector. For L2 the
// result is sqrt of the summed minimal squared diffs; for IP it is the
// negated sum of maximal products. The bound is tight when every interval
// is a point (it then equals the exact distance — bitwise, because the
// contributions are reduced in the same canonical blocked order the
// distance kernels use). It is the reference the tests above hold Interval
// and the two contribution functions to; the hot path is bitplane.Bounder's
// incremental version.
func lowerBoundFromIntervals(m Metric, q []float32, lo, hi []float64) float64 {
	if len(q) != len(lo) || len(q) != len(hi) {
		panic("vecmath: interval length mismatch")
	}
	contrib := make([]float64, len(q))
	switch m {
	case L2:
		for i := range q {
			contrib[i] = L2IntervalContrib(float64(q[i]), lo[i], hi[i])
		}
		return math.Sqrt(BlockedSum(contrib))
	case InnerProduct, Cosine:
		for i := range q {
			contrib[i] = IPIntervalUpper(float64(q[i]), lo[i], hi[i])
		}
		return -BlockedSum(contrib)
	default:
		panic("vecmath: unknown Metric")
	}
}
