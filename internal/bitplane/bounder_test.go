package bitplane

import (
	"math"
	"testing"

	"ansmet/internal/stats"
	"ansmet/internal/vecmath"
)

// makeVec draws a representable random vector of the given type.
func makeVec(r *stats.RNG, et vecmath.ElemType, dim int) []float32 {
	v := make([]float32, dim)
	for d := range v {
		switch et {
		case vecmath.Uint8:
			v[d] = float32(r.Intn(256))
		case vecmath.Int8:
			v[d] = float32(r.Intn(256) - 128)
		default:
			v[d] = et.Quantize(float32(r.NormFloat64() * 10))
		}
	}
	return v
}

func codesOf(et vecmath.ElemType, v []float32) []uint32 {
	return et.EncodeVector(v, nil)
}

func testConfigs() []struct {
	et    vecmath.ElemType
	sched Schedule
} {
	return []struct {
		et    vecmath.ElemType
		sched Schedule
	}{
		{vecmath.Uint8, PlainSchedule(vecmath.Uint8)},
		{vecmath.Uint8, UniformSchedule(vecmath.Uint8, 0, 1)},
		{vecmath.Uint8, UniformSchedule(vecmath.Uint8, 0, 4)},
		{vecmath.Int8, UniformSchedule(vecmath.Int8, 0, 2)},
		{vecmath.Float16, UniformSchedule(vecmath.Float16, 0, 8)},
		{vecmath.Float32, PlainSchedule(vecmath.Float32)},
		{vecmath.Float32, UniformSchedule(vecmath.Float32, 0, 8)},
		{vecmath.Float32, DualSchedule(vecmath.Float32, 0, 8, 1, 3)},
	}
}

func TestBounderExactWhenFullyConsumed(t *testing.T) {
	r := stats.NewRNG(1)
	for _, cfg := range testConfigs() {
		for _, m := range []vecmath.Metric{vecmath.L2, vecmath.InnerProduct} {
			dim := 96
			l := MustLayout(cfg.et, dim, cfg.sched)
			b := NewBounder(l, m, 0)
			q := makeVec(r, cfg.et, dim)
			b.ResetQuery(q)
			for trial := 0; trial < 20; trial++ {
				v := makeVec(r, cfg.et, dim)
				buf := make([]byte, l.VectorBytes())
				l.Transform(codesOf(cfg.et, v), buf)
				b.Reset()
				var lb float64
				for i := 0; i < l.LinesPerVector(); i++ {
					lb = b.ConsumeNext(buf[i*LineBytes : (i+1)*LineBytes])
				}
				want := m.Distance(q, v)
				if math.Abs(lb-want) > 1e-6*math.Max(1, math.Abs(want)) {
					t.Fatalf("%v/%v/%v: full consume LB %v != distance %v",
						cfg.et, cfg.sched, m, lb, want)
				}
				if _, lines := b.RunTo(buf, math.Inf(1), l.LinesPerVector()); lines != l.LinesPerVector() {
					t.Fatalf("%d of %d lines consumed after full consume", lines, l.LinesPerVector())
				}
			}
		}
	}
}

func TestBounderMonotoneAndSound(t *testing.T) {
	r := stats.NewRNG(2)
	for _, cfg := range testConfigs() {
		for _, m := range []vecmath.Metric{vecmath.L2, vecmath.InnerProduct} {
			dim := 50
			l := MustLayout(cfg.et, dim, cfg.sched)
			b := NewBounder(l, m, 0)
			q := makeVec(r, cfg.et, dim)
			b.ResetQuery(q)
			for trial := 0; trial < 20; trial++ {
				v := makeVec(r, cfg.et, dim)
				buf := make([]byte, l.VectorBytes())
				l.Transform(codesOf(cfg.et, v), buf)
				b.Reset()
				want := m.Distance(q, v)
				prev := math.Inf(-1)
				for i := 0; i < l.LinesPerVector(); i++ {
					lb := b.ConsumeNext(buf[i*LineBytes : (i+1)*LineBytes])
					if lb < prev-1e-9 {
						t.Fatalf("%v/%v: LB decreased %v -> %v at line %d", cfg.et, m, prev, lb, i)
					}
					if lb > want+1e-6*math.Max(1, math.Abs(want)) {
						t.Fatalf("%v/%v: LB %v exceeds true distance %v at line %d",
							cfg.et, m, lb, want, i)
					}
					prev = lb
				}
			}
		}
	}
}

// TestRunETNeverFalseRejects is the no-accuracy-loss guarantee: whenever
// RunET terminates early, the true distance really exceeds the threshold.
func TestRunETNeverFalseRejects(t *testing.T) {
	r := stats.NewRNG(3)
	for _, cfg := range testConfigs() {
		for _, m := range []vecmath.Metric{vecmath.L2, vecmath.InnerProduct} {
			dim := 64
			l := MustLayout(cfg.et, dim, cfg.sched)
			b := NewBounder(l, m, 0)
			q := makeVec(r, cfg.et, dim)
			b.ResetQuery(q)
			for trial := 0; trial < 50; trial++ {
				v := makeVec(r, cfg.et, dim)
				buf := make([]byte, l.VectorBytes())
				l.Transform(codesOf(cfg.et, v), buf)
				want := m.Distance(q, v)
				// Threshold drawn around the true distance so both branches
				// get exercised.
				th := want * (0.5 + r.Float64())
				if m == vecmath.InnerProduct {
					th = want + (r.Float64()-0.5)*math.Abs(want)
				}
				b.Reset()
				lb, lines := b.RunET(buf, th)
				if lines < l.LinesPerVector() {
					// Early terminated: must be a true reject.
					if want <= th {
						t.Fatalf("%v/%v: false reject: true %v <= threshold %v (lb %v)",
							cfg.et, m, want, th, lb)
					}
				} else if math.Abs(lb-want) > 1e-6*math.Max(1, math.Abs(want)) {
					t.Fatalf("%v/%v: full fetch LB %v != true %v", cfg.et, m, lb, want)
				}
			}
		}
	}
}

func TestRunETInfiniteThresholdFetchesAll(t *testing.T) {
	r := stats.NewRNG(4)
	l := MustLayout(vecmath.Float32, 32, UniformSchedule(vecmath.Float32, 0, 8))
	b := NewBounder(l, vecmath.L2, 0)
	b.ResetQuery(makeVec(r, vecmath.Float32, 32))
	v := makeVec(r, vecmath.Float32, 32)
	buf := make([]byte, l.VectorBytes())
	l.Transform(codesOf(vecmath.Float32, v), buf)
	_, lines := b.RunET(buf, math.Inf(1))
	if lines != l.LinesPerVector() {
		t.Errorf("infinite threshold fetched %d of %d lines", lines, l.LinesPerVector())
	}
}

func TestRunETTerminatesEarlyForFarVector(t *testing.T) {
	// A vector far from the query with a tight threshold should terminate
	// after the first group for L2 with 4-bit leading chunks.
	l := MustLayout(vecmath.Uint8, 64, UniformSchedule(vecmath.Uint8, 0, 4))
	b := NewBounder(l, vecmath.L2, 0)
	q := make([]float32, 64) // all zeros
	b.ResetQuery(q)
	v := make([]float32, 64)
	for i := range v {
		v[i] = 255
	}
	buf := make([]byte, l.VectorBytes())
	l.Transform(codesOf(vecmath.Uint8, v), buf)
	_, lines := b.RunET(buf, 10)
	if lines >= l.LinesPerVector() {
		t.Errorf("far vector was not early-terminated (%d lines)", lines)
	}
	if lines != 1 {
		t.Errorf("expected termination after first line, got %d", lines)
	}
}

func TestBounderWithCommonPrefix(t *testing.T) {
	// All values share top-4-bit code prefix. Eliminating it must preserve
	// exact distances when fully consumed.
	r := stats.NewRNG(5)
	et := vecmath.Uint8
	const prefixLen = 4
	const prefixVal = 0x9 // values in [0x90, 0x9F]
	dim := 32
	sched := UniformSchedule(et, prefixLen, 2)
	l := MustLayout(et, dim, sched)
	b := NewBounder(l, vecmath.L2, prefixVal)

	genVec := func() []float32 {
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(0x90 + r.Intn(16))
		}
		return v
	}
	q := genVec()
	b.ResetQuery(q)
	for trial := 0; trial < 20; trial++ {
		v := genVec()
		full := codesOf(et, v)
		suffix := make([]uint32, dim)
		for d, c := range full {
			if c>>4 != prefixVal {
				t.Fatal("test vector does not share prefix")
			}
			suffix[d] = c & 0xF
		}
		buf := make([]byte, l.VectorBytes())
		l.Transform(suffix, buf)
		b.Reset()
		lb, lines := b.RunET(buf, math.Inf(1))
		want := vecmath.L2.Distance(q, v)
		if lines != l.LinesPerVector() || math.Abs(lb-want) > 1e-9 {
			t.Fatalf("prefix-eliminated exact distance %v != %v", lb, want)
		}
	}
}

func TestBounderIPUnboundedWithoutBits(t *testing.T) {
	// For FP32 + inner product with no bits fetched, the bound must be
	// -Inf (useless), reproducing why NDP-DimET fails on IP datasets until
	// at least sign/exponent bits arrive.
	l := MustLayout(vecmath.Float32, 4, UniformSchedule(vecmath.Float32, 0, 8))
	b := NewBounder(l, vecmath.InnerProduct, 0)
	b.ResetQuery([]float32{1, -2, 3, 4})
	if lb := b.LB(); !math.IsInf(lb, -1) {
		t.Errorf("IP bound with zero bits = %v, want -Inf", lb)
	}
}

func TestBounderResetQueryReuse(t *testing.T) {
	r := stats.NewRNG(6)
	l := MustLayout(vecmath.Uint8, 16, UniformSchedule(vecmath.Uint8, 0, 4))
	b := NewBounder(l, vecmath.L2, 0)
	v := makeVec(r, vecmath.Uint8, 16)
	buf := make([]byte, l.VectorBytes())
	l.Transform(codesOf(vecmath.Uint8, v), buf)
	for trial := 0; trial < 5; trial++ {
		q := makeVec(r, vecmath.Uint8, 16)
		b.ResetQuery(q)
		lb, _ := b.RunET(buf, math.Inf(1))
		want := vecmath.L2.Distance(q, v)
		if math.Abs(lb-want) > 1e-9 {
			t.Fatalf("reuse across queries broke: %v != %v", lb, want)
		}
	}
}

func TestConsumePastEndPanics(t *testing.T) {
	l := MustLayout(vecmath.Uint8, 8, PlainSchedule(vecmath.Uint8))
	b := NewBounder(l, vecmath.L2, 0)
	b.ResetQuery(make([]float32, 8))
	line := make([]byte, LineBytes)
	b.ConsumeNext(line)
	defer func() {
		if recover() == nil {
			t.Fatal("consuming past end did not panic")
		}
	}()
	b.ConsumeNext(line)
}

// TestRunETCappedEscalationBitwiseExact: the adaptive-precision escalation
// primitive — resuming RunTo with doubling limits until the vector is
// exhausted — lands on a bound bitwise identical to a single uncapped run,
// for every element type. The invariant the mixed-precision search leans
// on: however a fully-fetched bound was reached, it IS the exact distance.
func TestRunETCappedEscalationBitwiseExact(t *testing.T) {
	r := stats.NewRNG(7)
	for _, et := range []vecmath.ElemType{
		vecmath.Uint8, vecmath.Int8, vecmath.Float16, vecmath.BFloat16, vecmath.Float32,
	} {
		for _, m := range []vecmath.Metric{vecmath.L2, vecmath.InnerProduct} {
			dim := 80
			l := MustLayout(et, dim, UniformSchedule(et, 0, 4))
			total := l.LinesPerVector()
			ref := NewBounder(l, m, 0)
			esc := NewBounder(l, m, 0)
			q := makeVec(r, et, dim)
			ref.ResetQuery(q)
			esc.ResetQuery(q)
			for trial := 0; trial < 20; trial++ {
				v := makeVec(r, et, dim)
				buf := make([]byte, l.VectorBytes())
				l.Transform(codesOf(et, v), buf)

				ref.Reset()
				want, wantLines := ref.RunTo(buf, math.Inf(1), total)
				if wantLines != total {
					t.Fatalf("%v/%v: uncapped run stopped at %d/%d lines", et, m, wantLines, total)
				}

				esc.Reset()
				var lb float64
				lines, prev := 0, math.Inf(-1)
				for cap := 1; lines < total; cap *= 2 {
					lb, lines = esc.RunTo(buf, math.Inf(1), cap)
					if lb < prev {
						t.Fatalf("%v/%v: bound decreased %v -> %v across escalation", et, m, prev, lb)
					}
					if lb > want+1e-6*math.Max(1, math.Abs(want)) {
						t.Fatalf("%v/%v: partial bound %v exceeds exact %v", et, m, lb, want)
					}
					prev = lb
				}
				if lb != want {
					t.Fatalf("%v/%v: escalated-to-full bound %v != uncapped %v (bitwise)", et, m, lb, want)
				}
			}
		}
	}
}
