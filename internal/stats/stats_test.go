package stats

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(1)
	const n = 100000
	var buckets [10]int
	for i := 0; i < n; i++ {
		buckets[int(r.Float64()*10)]++
	}
	for i, b := range buckets {
		if b < n/10-n/50 || b > n/10+n/50 {
			t.Errorf("bucket %d count %d far from expected %d", i, b, n/10)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(3)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance %v too far from 1", variance)
	}
}

func TestPerm(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation element %d", v)
		}
		seen[v] = true
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(11)
	z := NewZipf(r, 2.0, 1000)
	counts := make([]int, 1000)
	const n = 50000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	// With alpha=2 the first item should dominate: p(0) = 1/zeta-ish ~ 0.6.
	if counts[0] < n/3 {
		t.Errorf("zipf(2.0) head count %d, expected heavy skew (> %d)", counts[0], n/3)
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] {
		t.Errorf("zipf counts not decreasing: %d %d %d", counts[0], counts[1], counts[10])
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("Percentile of empty slice should be NaN")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Percentile mutated its input: %v", xs)
	}
}

func TestMeanGeoMean(t *testing.T) {
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Errorf("Mean = %v, want 4", got)
	}
	if got := GeoMean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean = %v, want 4", got)
	}
	if !math.IsNaN(GeoMean([]float64{1, -1})) {
		t.Error("GeoMean with non-positive input should be NaN")
	}
}

func TestKLDivergence(t *testing.T) {
	p := []float64{0.5, 0.5}
	if d := KLDivergence(p, p); d != 0 {
		t.Errorf("KL(p||p) = %v, want 0", d)
	}
	q := []float64{0.9, 0.1}
	d := KLDivergence(p, q)
	want := 0.5*math.Log(0.5/0.9) + 0.5*math.Log(0.5/0.1)
	if math.Abs(d-want) > 1e-12 {
		t.Errorf("KL = %v, want %v", d, want)
	}
	if KLDivergence([]float64{1, 0}, []float64{0.5, 0.5}) < 0 {
		t.Error("KL should be non-negative")
	}
}

func TestKLDivergenceProperties(t *testing.T) {
	// Non-negativity over random distributions.
	f := func(a, b [8]uint8) bool {
		p := make([]float64, 8)
		q := make([]float64, 8)
		ps, qs := 0.0, 0.0
		for i := 0; i < 8; i++ {
			p[i] = float64(a[i])
			q[i] = float64(b[i]) + 1 // keep q strictly positive
			ps += p[i]
			qs += q[i]
		}
		if ps == 0 {
			return true
		}
		return KLDivergence(p, q) >= -1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEntropy(t *testing.T) {
	if e := Entropy([]float64{1, 1}); math.Abs(e-math.Ln2) > 1e-12 {
		t.Errorf("entropy of uniform-2 = %v, want ln2", e)
	}
	if e := Entropy([]float64{1, 0, 0}); e != 0 {
		t.Errorf("entropy of point mass = %v, want 0", e)
	}
	if e := Entropy(nil); e != 0 {
		t.Errorf("entropy of empty = %v, want 0", e)
	}
}

func TestForkIndependence(t *testing.T) {
	r := NewRNG(9)
	f1 := r.Fork()
	f2 := r.Fork()
	same := 0
	for i := 0; i < 100; i++ {
		if f1.Uint64() == f2.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Errorf("forked streams overlap: %d identical of 100", same)
	}
}

// TestRNGStreamsUnchanged pins the first 1 000 outputs of three seeds to
// the streams recorded before NewRNG's seed expansion went through Mix64:
// every seeded schedule in the repository starts here.
func TestRNGStreamsUnchanged(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		want string
	}{
		{0, "757a9e48923a354721296928208b4b560405fe747783239ae416510007f6e81b"},
		{42, "c8630556f065b2f1b4b978299a7e68961e866525e37d63f277470b25cf3b3fd5"},
		{0xdeadbeefcafef00d, "c5dc41eefe52490d354ef6ac823c1d27f047d532d8a673b5211b26d5cffa4618"},
	} {
		h := sha256.New()
		r := NewRNG(c.seed)
		for i := 0; i < 1000; i++ {
			h.Write(binary.LittleEndian.AppendUint64(nil, r.Uint64()))
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != c.want {
			t.Errorf("seed %#x: sha256 %s, want %s", c.seed, got, c.want)
		}
	}
}
