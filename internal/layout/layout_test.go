package layout

import (
	"math"
	"testing"

	"ansmet/internal/bitplane"
	"ansmet/internal/dataset"
	"ansmet/internal/stats"
	"ansmet/internal/vecmath"
)

func sampleOf(t *testing.T, name string, n int) (*dataset.Dataset, [][]float32) {
	t.Helper()
	p := dataset.ProfileByName(name)
	ds := dataset.Generate(p, n, 0, 77)
	return ds, ds.Vectors
}

func TestAnalyzeBasics(t *testing.T) {
	ds, sample := sampleOf(t, "SIFT", 100)
	a, err := Analyze(sample, ds.Profile.Elem, ds.Profile.Metric, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Threshold <= 0 {
		t.Errorf("L2 threshold = %v, want positive", a.Threshold)
	}
	if len(a.PrefixEntropy) != 8 || len(a.ETFreq) != 8 {
		t.Fatalf("distribution lengths: %d, %d", len(a.PrefixEntropy), len(a.ETFreq))
	}
	// Entropy is monotone non-decreasing in prefix length.
	for l := 1; l < len(a.PrefixEntropy); l++ {
		if a.PrefixEntropy[l] < a.PrefixEntropy[l-1]-1e-9 {
			t.Errorf("prefix entropy decreased at length %d", l+1)
		}
	}
	// ET frequencies plus never-terminating fraction sum to <= 1.
	sum := a.NoTermFrac
	for _, f := range a.ETFreq {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("ET distribution sums to %v", sum)
	}
}

// TestPrefixEntropyDeterministic: one sample gives the same entropy bits on
// every call. The per-prefix counts come out of a map, and summed in its
// order the last bits of most entries moved from one call to the next.
func TestPrefixEntropyDeterministic(t *testing.T) {
	ds, sample := sampleOf(t, "DEEP", 100)
	var first []float64
	for call := 0; call < 5; call++ {
		a, err := Analyze(sample, ds.Profile.Elem, ds.Profile.Metric, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = a.PrefixEntropy
			continue
		}
		for l, h := range a.PrefixEntropy {
			if math.Float64bits(h) != math.Float64bits(first[l]) {
				t.Fatalf("call %d: entropy at %d bits is %v, first call %v", call, l+1, h, first[l])
			}
		}
	}
}

// TestSampleDrawsSeededRows: the sampling set is the first n ids of the
// seeded permutation, with the values the rows were packed from, and a set
// larger than the slab is the whole slab.
func TestSampleDrawsSeededRows(t *testing.T) {
	ds, _ := sampleOf(t, "DEEP", 50)
	rs := ds.Rows()
	perm := stats.NewRNG(9).Perm(rs.Len())
	for _, n := range []int{10, 50, 80} {
		got := Sample(rs, n, 9)
		if len(got) != min(n, rs.Len()) {
			t.Fatalf("n %d: %d vectors", n, len(got))
		}
		for i, v := range got {
			for d, x := range v {
				if want := ds.Vectors[perm[i]][d]; x != want {
					t.Fatalf("n %d: vector %d dim %d is %v, want %v", n, i, d, x, want)
				}
			}
		}
	}
}

func TestAnalyzeNeedsTwoVectors(t *testing.T) {
	if _, err := Analyze([][]float32{{1, 2}}, vecmath.Float32, vecmath.L2, DefaultOptions()); err == nil {
		t.Error("single-vector sample should fail")
	}
}

// TestAnalyzeRejectsZeroDimension: a sample of zero-length vectors is an
// error, not a parameter search that settles on a zero step width — the
// schedule built from that never terminated (the root package's
// TestZeroDimensionRejected drives the same input through New on a deadline).
func TestAnalyzeRejectsZeroDimension(t *testing.T) {
	if _, err := Analyze([][]float32{{}, {}, {}}, vecmath.Uint8, vecmath.L2, DefaultOptions()); err == nil {
		t.Error("zero-dimension sample should fail")
	}
}

func TestFig3Shape(t *testing.T) {
	// The prefix-friendly fp32 profiles must show the Fig. 3 structure:
	// near-zero entropy for the first bits (low-entropy range) and most ET
	// events in a middle band, not in the lowest bits.
	for _, name := range []string{"DEEP", "GIST"} {
		ds, sample := sampleOf(t, name, 80)
		a, err := Analyze(sample, ds.Profile.Elem, ds.Profile.Metric, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if a.PrefixEntropy[1] > 0.2 {
			t.Errorf("%s: entropy at 2 bits = %v, want low-entropy prefix", name, a.PrefixEntropy[1])
		}
		// Termination mass in the last quarter of bits should be small.
		w := ds.Profile.Elem.Bits()
		tail := 0.0
		for l := w * 3 / 4; l < w; l++ {
			tail += a.ETFreq[l]
		}
		mid := 0.0
		for l := w / 8; l < w*3/4; l++ {
			mid += a.ETFreq[l]
		}
		if mid <= tail {
			t.Errorf("%s: mid-band ET mass %v <= tail mass %v", name, mid, tail)
		}
	}
}

func TestTerminationPosition(t *testing.T) {
	// Identical vectors never terminate.
	q := []float32{5, 5, 5, 5}
	codes := vecmath.Uint8.EncodeVector(q, nil)
	if pos := TerminationPosition(vecmath.Uint8, vecmath.L2, 1.0, q, codes); pos != 9 {
		t.Errorf("identical vectors: pos = %d, want 9 (never)", pos)
	}
	// A far vector terminates on the very first bit: query 0 vs 255 with
	// tiny threshold; after 1 bit the interval is [128,255] -> LB >= 128.
	far := []float32{255, 255, 255, 255}
	codes = vecmath.Uint8.EncodeVector(far, nil)
	q0 := []float32{0, 0, 0, 0}
	if pos := TerminationPosition(vecmath.Uint8, vecmath.L2, 10, q0, codes); pos != 1 {
		t.Errorf("far vector: pos = %d, want 1", pos)
	}
	// Monotone: a larger threshold can only terminate later.
	mid := []float32{100, 30, 200, 60}
	codes = vecmath.Uint8.EncodeVector(mid, nil)
	p1 := TerminationPosition(vecmath.Uint8, vecmath.L2, 20, q0, codes)
	p2 := TerminationPosition(vecmath.Uint8, vecmath.L2, 100, q0, codes)
	if p2 < p1 {
		t.Errorf("higher threshold terminated earlier: %d vs %d", p1, p2)
	}
}

func TestTerminationConsistentWithBounder(t *testing.T) {
	// pET from TerminationPosition must agree with a bit-serial bounder run.
	ds, sample := sampleOf(t, "SPACEV", 30)
	elem, metric := ds.Profile.Elem, ds.Profile.Metric
	sched := bitplane.UniformSchedule(elem, 0, 1)
	l := bitplane.MustLayout(elem, ds.Profile.Dim, sched)
	b := bitplane.NewBounder(l, metric, 0)
	th := 50.0
	for i := 0; i < 10; i++ {
		q := sample[i]
		v := sample[i+10]
		codes := elem.EncodeVector(v, nil)
		pos := TerminationPosition(elem, metric, th, q, codes)
		buf := make([]byte, l.VectorBytes())
		l.Transform(codes, buf)
		b.ResetQuery(q)
		_, lines := b.RunET(buf, th)
		// SPACEV dim=100 fits one line per bit group, so lines == bits.
		wantLines := pos
		if pos > elem.Bits() {
			wantLines = l.LinesPerVector()
		}
		if lines != wantLines {
			t.Errorf("pair %d: TerminationPosition %d vs bounder lines %d", i, pos, lines)
		}
	}
}

func TestOptimizeDualBeatsOrMatchesUniform(t *testing.T) {
	for _, name := range []string{"SIFT", "DEEP", "GIST"} {
		ds, sample := sampleOf(t, name, 60)
		a, err := Analyze(sample, ds.Profile.Elem, ds.Profile.Metric, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		best := a.OptimizeDual(0)
		if best.Cost <= 0 || math.IsInf(best.Cost, 0) {
			t.Fatalf("%s: degenerate cost %v", name, best.Cost)
		}
		simple := a.costOf(SimpleHeuristicSchedule(ds.Profile.Elem))
		plain := a.costOf(bitplane.PlainSchedule(ds.Profile.Elem))
		if best.Cost > simple+1e-9 {
			t.Errorf("%s: optimized cost %v worse than simple heuristic %v", name, best.Cost, simple)
		}
		if best.Cost > plain+1e-9 {
			t.Errorf("%s: optimized cost %v worse than plain %v", name, best.Cost, plain)
		}
		// The schedule must be valid.
		if err := best.Schedule(ds.Profile.Elem).Validate(ds.Profile.Elem); err != nil {
			t.Errorf("%s: invalid optimized schedule: %v", name, err)
		}
	}
}

func TestPrefixEliminationReducesCost(t *testing.T) {
	// On prefix-friendly data, enabling the common prefix should not make
	// the optimized cost worse.
	ds, sample := sampleOf(t, "GIST", 60)
	a, err := Analyze(sample, ds.Profile.Elem, ds.Profile.Metric, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.CommonPrefixLen < 2 {
		t.Fatalf("GIST-like data should have a common prefix, got %d", a.CommonPrefixLen)
	}
	with := a.BestParams(true)
	without := a.BestParams(false)
	if with.Cost > without.Cost+1e-9 {
		t.Errorf("prefix elimination made cost worse: %v vs %v", with.Cost, without.Cost)
	}
}

func TestLineDistribution(t *testing.T) {
	ds, sample := sampleOf(t, "SIFT", 60)
	a, err := Analyze(sample, ds.Profile.Elem, ds.Profile.Metric, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sched := SimpleHeuristicSchedule(ds.Profile.Elem)
	dist := a.LineDistribution(sched)
	l := bitplane.MustLayout(ds.Profile.Elem, ds.Profile.Dim, sched)
	if len(dist) != l.LinesPerVector() {
		t.Fatalf("distribution length %d, want %d", len(dist), l.LinesPerVector())
	}
	sum := 0.0
	for _, p := range dist {
		if p < 0 {
			t.Fatal("negative probability")
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("line distribution sums to %v", sum)
	}
	// Expected lines from distribution must equal cost model / 64.
	exp := 0.0
	for i, p := range dist {
		exp += float64(i+1) * p
	}
	if math.Abs(exp*bitplane.LineBytes-a.costOf(sched)) > 1e-6 {
		t.Errorf("distribution mean %v lines inconsistent with cost %v bytes",
			exp, a.costOf(sched))
	}
}

func TestSimpleHeuristicSchedule(t *testing.T) {
	if s := SimpleHeuristicSchedule(vecmath.Uint8); s.Steps[0] != 4 {
		t.Errorf("int heuristic = %v, want 4-bit chunks", s)
	}
	if s := SimpleHeuristicSchedule(vecmath.Float32); s.Steps[0] != 8 {
		t.Errorf("float heuristic = %v, want 8-bit chunks", s)
	}
}

func TestIPThresholdNegative(t *testing.T) {
	ds, sample := sampleOf(t, "GloVe", 50)
	a, err := Analyze(sample, ds.Profile.Elem, ds.Profile.Metric, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// IP distances are negated dot products; the threshold can be any sign
	// but the optimizer must still produce a valid schedule.
	p := a.BestParams(false)
	if err := p.Schedule(ds.Profile.Elem).Validate(ds.Profile.Elem); err != nil {
		t.Errorf("invalid IP schedule: %v", err)
	}
}
