package vecmath

import (
	"math"
	"testing"
	"testing/quick"

	"ansmet/internal/stats"
)

var allTypes = []ElemType{Uint8, Int8, Float16, BFloat16, Float32}

// randRepresentable draws a random value already representable in t.
func randRepresentable(r *stats.RNG, t ElemType) float32 {
	switch t {
	case Uint8:
		return float32(r.Intn(256))
	case Int8:
		return float32(r.Intn(256) - 128)
	default:
		// Mix of magnitudes, including negatives and zero.
		v := float32(r.NormFloat64() * math.Pow(10, float64(r.Intn(7)-3)))
		if r.Intn(50) == 0 {
			v = 0
		}
		return t.Quantize(v)
	}
}

func TestElemTypeBasics(t *testing.T) {
	cases := []struct {
		et   ElemType
		bits int
		name string
	}{
		{Uint8, 8, "uint8"}, {Int8, 8, "int8"}, {Float16, 16, "fp16"},
		{BFloat16, 16, "bf16"}, {Float32, 32, "fp32"},
	}
	for _, c := range cases {
		if c.et.Bits() != c.bits {
			t.Errorf("%v.Bits() = %d, want %d", c.et, c.et.Bits(), c.bits)
		}
		if c.et.Bytes() != c.bits/8 {
			t.Errorf("%v.Bytes() = %d, want %d", c.et, c.et.Bytes(), c.bits/8)
		}
		if c.et.String() != c.name {
			t.Errorf("String() = %q, want %q", c.et.String(), c.name)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := stats.NewRNG(101)
	for _, et := range allTypes {
		for i := 0; i < 2000; i++ {
			v := randRepresentable(r, et)
			code := et.Encode(v)
			got := et.Decode(code)
			if float32(got) != v && !(v == 0 && got == 0) {
				t.Fatalf("%v: Decode(Encode(%v)) = %v", et, v, got)
			}
			if code>>uint(et.Bits()) != 0 {
				t.Fatalf("%v: code %#x uses more than %d bits", et, code, et.Bits())
			}
		}
	}
}

func TestEncodeOrderPreserving(t *testing.T) {
	r := stats.NewRNG(202)
	for _, et := range allTypes {
		for i := 0; i < 5000; i++ {
			a := randRepresentable(r, et)
			b := randRepresentable(r, et)
			ca, cb := et.Encode(a), et.Encode(b)
			switch {
			case a < b:
				if ca >= cb {
					t.Fatalf("%v: a=%v < b=%v but code %#x >= %#x", et, a, b, ca, cb)
				}
			case a > b:
				if ca <= cb {
					t.Fatalf("%v: a=%v > b=%v but code %#x <= %#x", et, a, b, ca, cb)
				}
			default:
				if ca != cb {
					t.Fatalf("%v: a=%v == b=%v but codes differ %#x %#x", et, a, b, ca, cb)
				}
			}
		}
	}
}

func TestEncodeNegativeZero(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	for _, et := range []ElemType{Float16, BFloat16, Float32} {
		if et.Encode(negZero) != et.Encode(0) {
			t.Errorf("%v: -0 and +0 encode differently", et)
		}
	}
}

func TestIntervalContainsValue(t *testing.T) {
	r := stats.NewRNG(303)
	for _, et := range allTypes {
		w := et.Bits()
		for i := 0; i < 2000; i++ {
			v := randRepresentable(r, et)
			code := et.Encode(v)
			known := r.Intn(w + 1)
			prefix := code >> uint(w-known)
			lo, hi := et.Interval(prefix, known)
			if float64(v) < lo || float64(v) > hi {
				t.Fatalf("%v: value %v outside interval [%v,%v] with %d known bits",
					et, v, lo, hi, known)
			}
			if lo > hi {
				t.Fatalf("%v: inverted interval [%v,%v]", et, lo, hi)
			}
		}
	}
}

func TestIntervalFullKnownIsPoint(t *testing.T) {
	r := stats.NewRNG(404)
	for _, et := range allTypes {
		for i := 0; i < 500; i++ {
			v := randRepresentable(r, et)
			code := et.Encode(v)
			lo, hi := et.Interval(code, et.Bits())
			if lo != hi || float32(lo) != v {
				t.Fatalf("%v: full-known interval [%v,%v] for value %v", et, lo, hi, v)
			}
		}
	}
}

func TestIntervalNesting(t *testing.T) {
	// More known bits must never widen the interval.
	r := stats.NewRNG(505)
	for _, et := range allTypes {
		w := et.Bits()
		for i := 0; i < 1000; i++ {
			v := randRepresentable(r, et)
			code := et.Encode(v)
			prevLo, prevHi := math.Inf(-1), math.Inf(1)
			for known := 0; known <= w; known++ {
				lo, hi := et.Interval(code>>uint(w-known), known)
				if lo < prevLo-1e-9 || hi > prevHi+1e-9 {
					t.Fatalf("%v: interval widened at %d known bits: [%v,%v] -> [%v,%v]",
						et, known, prevLo, prevHi, lo, hi)
				}
				prevLo, prevHi = lo, hi
			}
		}
	}
}

func TestFullRange(t *testing.T) {
	lo, hi := Uint8.FullRange()
	if lo != 0 || hi != 255 {
		t.Errorf("uint8 full range [%v,%v], want [0,255]", lo, hi)
	}
	lo, hi = Int8.FullRange()
	if lo != -128 || hi != 127 {
		t.Errorf("int8 full range [%v,%v], want [-128,127]", lo, hi)
	}
	lo, hi = Float32.FullRange()
	if !math.IsInf(lo, -1) || !math.IsInf(hi, 1) {
		t.Errorf("fp32 full range [%v,%v], want infinite", lo, hi)
	}
}

func TestQuantizeClamps(t *testing.T) {
	if Uint8.Quantize(-5) != 0 || Uint8.Quantize(300) != 255 {
		t.Error("uint8 quantize does not clamp")
	}
	if Int8.Quantize(-200) != -128 || Int8.Quantize(200) != 127 {
		t.Error("int8 quantize does not clamp")
	}
	if Float32.Quantize(1.5) != 1.5 {
		t.Error("fp32 quantize should be identity")
	}
}

func TestQuantizeIdempotent(t *testing.T) {
	f := func(raw float32) bool {
		if math.IsNaN(float64(raw)) || math.IsInf(float64(raw), 0) {
			return true
		}
		for _, et := range allTypes {
			q := et.Quantize(raw)
			if et.Quantize(q) != q {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeVector(t *testing.T) {
	v := []float32{1, 2, 3, 250}
	codes := Uint8.EncodeVector(v, nil)
	for i := range v {
		if back := float32(Uint8.Decode(codes[i])); back != v[i] {
			t.Fatalf("vector round trip: component %d got %v want %v", i, back, v[i])
		}
	}
}

func TestMSBCarriesMagnitude(t *testing.T) {
	// The core premise of partial-bit ET: the top code bits discriminate
	// coarse magnitude. Check sign is the MSB for all numeric types.
	for _, et := range []ElemType{Int8, Float16, BFloat16, Float32} {
		w := uint(et.Bits())
		neg := et.Encode(et.Quantize(-3))
		pos := et.Encode(et.Quantize(3))
		if neg>>(w-1) != 0 || pos>>(w-1) != 1 {
			t.Errorf("%v: sign bit not MSB (neg=%#x pos=%#x)", et, neg, pos)
		}
	}
}
