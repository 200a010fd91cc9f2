package vecmath

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzEncodeOrder fuzzes the order-preserving code invariant across every
// element type: a <= b must imply Encode(a) <= Encode(b) (and codes must
// round trip) for arbitrary float inputs after quantization.
func FuzzEncodeOrder(f *testing.F) {
	f.Add(float32(0), float32(1))
	f.Add(float32(-1.5), float32(1.5))
	f.Add(float32(1e-30), float32(-1e30))
	f.Add(float32(255), float32(256))
	f.Fuzz(func(t *testing.T, a, b float32) {
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) ||
			math.IsInf(float64(a), 0) || math.IsInf(float64(b), 0) {
			t.Skip()
		}
		for _, et := range []ElemType{Uint8, Int8, Float16, BFloat16, Float32} {
			qa, qb := et.Quantize(a), et.Quantize(b)
			if math.IsInf(float64(qa), 0) || math.IsInf(float64(qb), 0) {
				continue // fp16 overflow saturates to Inf; codes still order but skip
			}
			ca, cb := et.Encode(qa), et.Encode(qb)
			switch {
			case qa < qb:
				if ca >= cb {
					t.Fatalf("%v: %v < %v but codes %#x >= %#x", et, qa, qb, ca, cb)
				}
			case qa > qb:
				if ca <= cb {
					t.Fatalf("%v: %v > %v but codes %#x <= %#x", et, qa, qb, ca, cb)
				}
			}
			if got := float32(et.Decode(ca)); got != qa && !(qa == 0 && got == 0) {
				t.Fatalf("%v: decode(%#x) = %v, want %v", et, ca, got, qa)
			}
		}
	})
}

// FuzzIntervalContains fuzzes the prefix-interval soundness: for any value
// and any known-bit count, the interval contains the value.
func FuzzIntervalContains(f *testing.F) {
	f.Add(float32(1.25), uint8(7))
	f.Add(float32(-3), uint8(0))
	f.Add(float32(0), uint8(31))
	f.Fuzz(func(t *testing.T, v float32, knownRaw uint8) {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Skip()
		}
		for _, et := range []ElemType{Uint8, Int8, Float16, BFloat16, Float32} {
			q := et.Quantize(v)
			if math.IsInf(float64(q), 0) {
				continue
			}
			w := et.Bits()
			known := int(knownRaw) % (w + 1)
			code := et.Encode(q)
			lo, hi := et.Interval(code>>uint(w-known), known)
			if float64(q) < lo || float64(q) > hi {
				t.Fatalf("%v: %v outside [%v,%v] with %d known bits", et, q, lo, hi, known)
			}
		}
	})
}

// refSquaredL2 composes the canonical reduction from BlockSum the way
// kernels.go documents it: per-dimension terms, BlockSum per block, block
// subtotals left to right. The unrolled SquaredL2 must match it bitwise.
func refSquaredL2(a, b []float32) float64 {
	terms := make([]float64, len(a))
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		terms[i] = d * d
	}
	return BlockedSum(terms)
}

func refDot(a, b []float32) float64 {
	terms := make([]float64, len(a))
	for i := range a {
		terms[i] = float64(a[i]) * float64(b[i])
	}
	return BlockedSum(terms)
}

// FuzzKernelsMatchReference fuzzes the bitwise contract between the
// distance kernels and the scalar reference reduction, for every element
// type (the values a kernel can ever see are quantized ones) and for EVERY
// implementation in the dispatch table — scalar, and AVX2 where the CPU has
// it — plus the package-level dispatched entry points (which CI
// additionally runs with ANSMET_NO_SIMD=1 to cover the forced-scalar
// table). Any drift here would break DESIGN.md invariant 3: the bounder's
// blocked partial sums are only bitwise-equal to the exact distance because
// both sides reduce in this one canonical order. An FMA-induced rounding
// difference in a SIMD kernel is a bug this fuzz target must catch, never a
// tolerance to encode.
func FuzzKernelsMatchReference(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{8, 7, 6, 5, 4, 3, 2, 1})
	f.Add(make([]byte, 200), []byte{0xff, 0x80, 0x01, 0x7f, 0x00, 0xc0})
	f.Add([]byte{0x42, 0x28, 0x00, 0x00, 0xc2, 0x28, 0x00, 0x00}, []byte{0x3f, 0x80, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, ra, rb []byte) {
		// Decode both byte strings as float32 streams over a common length
		// (dimension intentionally not a multiple of the block size in most
		// runs, to exercise the tail path).
		n := len(ra) / 4
		if m := len(rb) / 4; m < n {
			n = m
		}
		if n == 0 {
			t.Skip()
		}
		raw := func(src []byte, i int) float32 {
			return math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
		}
		for _, et := range []ElemType{Uint8, Int8, Float16, BFloat16, Float32} {
			a := make([]float32, n)
			b := make([]float32, n)
			ok := true
			for i := 0; i < n; i++ {
				x, y := raw(ra, i), raw(rb, i)
				if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) ||
					math.IsNaN(float64(y)) || math.IsInf(float64(y), 0) {
					ok = false
					break
				}
				a[i], b[i] = et.Quantize(x), et.Quantize(y)
				if math.IsInf(float64(a[i]), 0) || math.IsInf(float64(b[i]), 0) {
					ok = false // fp16 overflow saturates to Inf
					break
				}
			}
			if !ok {
				continue
			}
			wantL2, wantDot := refSquaredL2(a, b), refDot(a, b)
			if got := SquaredL2(a, b); math.Float64bits(got) != math.Float64bits(wantL2) {
				t.Fatalf("%v dim %d: SquaredL2 = %v (%#x), reference %v (%#x)",
					et, n, got, math.Float64bits(got), wantL2, math.Float64bits(wantL2))
			}
			if got := Dot(a, b); math.Float64bits(got) != math.Float64bits(wantDot) {
				t.Fatalf("%v dim %d: Dot = %v (%#x), reference %v (%#x)",
					et, n, got, math.Float64bits(got), wantDot, math.Float64bits(wantDot))
			}
			for _, im := range Implementations() {
				if got := im.SquaredL2(a, b); math.Float64bits(got) != math.Float64bits(wantL2) {
					t.Fatalf("%s %v dim %d: SquaredL2 = %v (%#x), reference %v (%#x)",
						im.Name, et, n, got, math.Float64bits(got), wantL2, math.Float64bits(wantL2))
				}
				if got := im.Dot(a, b); math.Float64bits(got) != math.Float64bits(wantDot) {
					t.Fatalf("%s %v dim %d: Dot = %v (%#x), reference %v (%#x)",
						im.Name, et, n, got, math.Float64bits(got), wantDot, math.Float64bits(wantDot))
				}
				// The block kernels agree on the same data reinterpreted as
				// float64 contributions (the bounder-side consumers).
				terms := make([]float64, n)
				for i := range terms {
					terms[i] = float64(a[i]) * float64(b[i])
				}
				if got, want := im.BlockSum(terms), scalarBlockSum(terms); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s dim %d: BlockSum = %v (%#x), reference %v (%#x)",
						im.Name, n, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				nblk := (n + BlockDims - 1) / BlockDims
				gotDst := make([]float64, nblk)
				wantDst := make([]float64, nblk)
				got := im.BlockSumsTotal(terms, gotDst, 0, nblk-1)
				want := scalarBlockSumsTotal(terms, wantDst, 0, nblk-1)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s dim %d: BlockSumsTotal = %v (%#x), reference %v (%#x)",
						im.Name, n, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				for k := range gotDst {
					if math.Float64bits(gotDst[k]) != math.Float64bits(wantDst[k]) {
						t.Fatalf("%s dim %d: blockSums[%d] = %v, reference %v",
							im.Name, n, k, gotDst[k], wantDst[k])
					}
				}
			}
			// Distance/SquaredDistance derivations stay consistent with the
			// kernels for every metric.
			if got, want := L2.Distance(a, b), math.Sqrt(SquaredL2(a, b)); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v dim %d: L2.Distance = %v, want sqrt(SquaredL2) = %v", et, n, got, want)
			}
			if got, want := L2.SquaredDistance(a, b), SquaredL2(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v dim %d: L2.SquaredDistance = %v, want %v", et, n, got, want)
			}
			for _, m := range []Metric{InnerProduct, Cosine} {
				if got, want := m.Distance(a, b), -Dot(a, b); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v dim %d: %v.Distance = %v, want -Dot = %v", et, n, m, got, want)
				}
				if got, want := m.SquaredDistance(a, b), m.Distance(a, b); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v dim %d: %v.SquaredDistance = %v, want Distance = %v", et, n, m, got, want)
				}
			}
		}
	})
}

// FuzzHalfRoundTrip fuzzes the binary16 conversion against the invariant
// that conversion is idempotent and order-preserving on its image.
func FuzzHalfRoundTrip(f *testing.F) {
	f.Add(uint16(0x3c00))
	f.Add(uint16(0x0001))
	f.Add(uint16(0xfbff))
	f.Fuzz(func(t *testing.T, h uint16) {
		if h&0x7c00 == 0x7c00 && h&0x3ff != 0 {
			t.Skip() // NaN payloads
		}
		v := F16ToF32(h)
		if got := F16FromF32(v); got != h {
			t.Fatalf("half %#04x -> %v -> %#04x", h, v, got)
		}
	})
}
