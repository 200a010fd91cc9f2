package quantize

import (
	"math"
	"sort"
	"testing"

	"ansmet/internal/bitplane"
	"ansmet/internal/dataset"
	"ansmet/internal/layout"
	"ansmet/internal/vecmath"
)

func deepData(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	return dataset.Generate(dataset.ProfileByName("DEEP"), n, 8, 77)
}

func TestFitScalarValidation(t *testing.T) {
	if _, err := FitScalar(nil); err == nil {
		t.Error("empty dataset should fail")
	}
	if _, err := FitScalar([][]float32{{1, 2}, {1}}); err == nil {
		t.Error("ragged dataset should fail")
	}
}

func TestScalarRoundTripError(t *testing.T) {
	ds := deepData(t, 300)
	s, err := FitScalar(ds.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	halfStep := float64(s.Hi-s.Lo) / 255 / 2
	maxErr := 0.0
	for _, v := range ds.Vectors[:100] {
		back := s.Dequantize(s.Quantize(v))
		for d := range v {
			e := math.Abs(float64(back[d] - v[d]))
			if e > maxErr {
				maxErr = e
			}
			if e > halfStep+1e-6 {
				t.Fatalf("error %v exceeds half step %v", e, halfStep)
			}
		}
	}
	if maxErr == 0 {
		t.Error("suspiciously exact quantization")
	}
}

// TestScalarQuantizedStoreET is the §4.3 scalar-quantization compatibility
// claim: SQ8 vectors drop into the bit-plane early-termination store as
// Uint8 data, and search in quantized space still early-terminates.
func TestScalarQuantizedStoreET(t *testing.T) {
	ds := deepData(t, 500)
	s, _ := FitScalar(ds.Vectors)
	qv := make([][]float32, len(ds.Vectors))
	for i, v := range ds.Vectors {
		qv[i] = s.Quantize(v)
	}
	sched := layout.SimpleHeuristicSchedule(vecmath.Uint8)
	l := bitplane.MustLayout(vecmath.Uint8, len(qv[0]), sched)
	b := bitplane.NewBounder(l, vecmath.L2, 0)
	buf := make([]byte, l.VectorBytes())

	q := s.Quantize(ds.Queries[0])
	b.ResetQuery(q)
	// Exact distance in quantized space and a tight threshold.
	nnDist := math.Inf(1)
	for _, v := range qv {
		if d := vecmath.L2.Distance(q, v); d < nnDist {
			nnDist = d
		}
	}
	saved := 0
	for _, v := range qv {
		l.Transform(vecmath.Uint8.EncodeVector(v, nil), buf)
		b.Reset()
		lb, lines := b.RunET(buf, nnDist*1.2)
		if lines < l.LinesPerVector() {
			saved += l.LinesPerVector() - lines
			if want := vecmath.L2.Distance(q, v); lb > want+1e-6 {
				t.Fatalf("quantized ET bound %v exceeds true %v", lb, want)
			}
		}
	}
	if saved == 0 {
		t.Error("quantized store never early-terminated")
	}
}

func TestFitPQValidation(t *testing.T) {
	ds := deepData(t, 50)
	if _, err := FitPQ(nil, 4, 16, 5, 1); err == nil {
		t.Error("empty dataset should fail")
	}
	if _, err := FitPQ(ds.Vectors, 5, 16, 5, 1); err == nil {
		t.Error("dim 96 not divisible by 5 should fail")
	}
	if _, err := FitPQ(ds.Vectors, 4, 300, 5, 1); err == nil {
		t.Error("k > 256 should fail")
	}
}

func TestPQReconstructionImprovesWithK(t *testing.T) {
	ds := deepData(t, 400)
	err := func(k int) float64 {
		p, e := FitPQ(ds.Vectors, 8, k, 8, 3)
		if e != nil {
			t.Fatal(e)
		}
		sum := 0.0
		for _, v := range ds.Vectors[:100] {
			back := p.Decode(p.Encode(v))
			for d := range v {
				diff := float64(back[d] - v[d])
				sum += diff * diff
			}
		}
		return sum
	}
	e4, e64 := err(4), err(64)
	if e64 >= e4 {
		t.Errorf("K=64 reconstruction error %v not below K=4 error %v", e64, e4)
	}
}

func TestPQADCDistanceMatchesDecodedDistance(t *testing.T) {
	ds := deepData(t, 300)
	p, err := FitPQ(ds.Vectors, 8, 32, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Queries[0]
	tab := p.NewTable(q, vecmath.L2)
	for _, v := range ds.Vectors[:50] {
		code := p.Encode(v)
		adc := tab.Distance(code)
		want := vecmath.L2.Distance(q, p.Decode(code))
		if math.Abs(adc-want) > 1e-5*math.Max(1, want) {
			t.Fatalf("ADC %v != decoded distance %v", adc, want)
		}
	}
}

func TestPQLowerBoundSoundAndMonotone(t *testing.T) {
	ds := deepData(t, 200)
	for _, metric := range []vecmath.Metric{vecmath.L2, vecmath.InnerProduct} {
		p, err := FitPQ(ds.Vectors, 8, 16, 6, 5)
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < 4; qi++ {
			tab := p.NewTable(ds.Queries[qi], metric)
			for _, v := range ds.Vectors[:40] {
				code := p.Encode(v)
				full := tab.Distance(code)
				prev := math.Inf(-1)
				for f := 0; f <= p.M; f++ {
					lb := tab.LowerBound(code, f)
					if lb > full+1e-9 {
						t.Fatalf("%v: LB(%d) = %v exceeds full %v", metric, f, lb, full)
					}
					if lb < prev-1e-9 {
						t.Fatalf("%v: LB decreased at %d: %v -> %v", metric, f, prev, lb)
					}
					prev = lb
				}
				if math.Abs(tab.LowerBound(code, p.M)-full) > 1e-9 {
					t.Fatalf("%v: full LB != distance", metric)
				}
			}
		}
	}
}

func TestPQETScanExactInADCSpace(t *testing.T) {
	ds := deepData(t, 600)
	p, err := FitPQ(ds.Vectors, 8, 32, 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	codes := make([][]uint8, len(ds.Vectors))
	for i, v := range ds.Vectors {
		codes[i] = p.Encode(v)
	}
	// The codes appended to themselves: every ADC distance ties with the
	// one at id + n, so the answer rests on the (distance, id) tie rule —
	// at k = 1 the answer is decided by it alone.
	doubled := append(codes[:len(codes):len(codes)], codes...)
	for _, set := range []struct {
		name  string
		codes [][]uint8
	}{{"codes", codes}, {"doubled", doubled}} {
		for _, k := range []int{10, 1} {
			for qi, q := range ds.Queries[:4] {
				tab := p.NewTable(q, vecmath.L2)
				ids, dists, fetched, total := tab.ETScan(set.codes, k)

				// Reference: full ADC scan.
				type cd struct {
					id uint32
					d  float64
				}
				ref := make([]cd, len(set.codes))
				for i, c := range set.codes {
					ref[i] = cd{uint32(i), tab.Distance(c)}
				}
				sort.Slice(ref, func(i, j int) bool {
					if ref[i].d != ref[j].d {
						return ref[i].d < ref[j].d
					}
					return ref[i].id < ref[j].id
				})
				if len(ids) != k || len(dists) != k {
					t.Fatalf("%s k=%d q%d: %d ids, %d dists", set.name, k, qi, len(ids), len(dists))
				}
				for j := range ids {
					if ids[j] != ref[j].id || math.Float64bits(dists[j]) != math.Float64bits(ref[j].d) {
						t.Fatalf("%s k=%d q%d result %d: id %d (%v), want %d (%v)",
							set.name, k, qi, j, ids[j], dists[j], ref[j].id, ref[j].d)
					}
				}
				if fetched >= total {
					t.Errorf("%s k=%d q%d: PQ partial-element ET saved nothing (%d of %d)",
						set.name, k, qi, fetched, total)
				}
			}
		}
	}
}

func TestPQETScanIPStillSound(t *testing.T) {
	// For IP the per-subspace minimum can be negative — the bound is weak
	// but must remain sound (results identical to a full scan).
	ds := dataset.Generate(dataset.ProfileByName("GloVe"), 400, 3, 13)
	p, err := FitPQ(ds.Vectors, 4, 16, 6, 17)
	if err != nil {
		t.Fatal(err)
	}
	codes := make([][]uint8, len(ds.Vectors))
	for i, v := range ds.Vectors {
		codes[i] = p.Encode(v)
	}
	tab := p.NewTable(ds.Queries[0], vecmath.InnerProduct)
	ids, _, _, _ := tab.ETScan(codes, 5)
	best, bestD := uint32(0), math.Inf(1)
	for i, c := range codes {
		if d := tab.Distance(c); d < bestD {
			best, bestD = uint32(i), d
		}
	}
	if ids[0] != best {
		t.Fatalf("IP ET scan top-1 %d, want %d", ids[0], best)
	}
}
