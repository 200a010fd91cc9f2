// Package vecmath implements the numeric foundation of the ANSMET
// reproduction: vector element types, order-preserving bit codes, distance
// metrics, and the interval arithmetic behind provable distance lower
// bounds for partially fetched vectors (paper §4.1).
//
// The central idea is the *order-preserving code*: every element value is
// mapped to an unsigned integer code such that numeric order equals code
// order and the most significant code bits carry the most distance-relevant
// information (sign first, then exponent, then mantissa for floats). Knowing
// the top L bits of a code therefore confines the value to a contiguous
// numeric interval, from which sound per-dimension distance bounds follow.
package vecmath

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// ElemType enumerates the vector element data types evaluated in the paper
// (Table 2): unsigned and signed 8-bit integers and three float formats.
type ElemType int

const (
	Uint8 ElemType = iota
	Int8
	Float16
	BFloat16
	Float32
)

var elemNames = [...]string{"uint8", "int8", "fp16", "bf16", "fp32"}

// String returns the lowercase conventional name of the type.
func (t ElemType) String() string {
	if t < 0 || int(t) >= len(elemNames) {
		return fmt.Sprintf("ElemType(%d)", int(t))
	}
	return elemNames[t]
}

// Bits returns the storage width of one element in bits.
func (t ElemType) Bits() int {
	switch t {
	case Uint8, Int8:
		return 8
	case Float16, BFloat16:
		return 16
	case Float32:
		return 32
	default:
		panic("vecmath: unknown ElemType")
	}
}

// Bytes returns the storage width of one element in bytes.
func (t ElemType) Bytes() int { return t.Bits() / 8 }

// Quantize rounds v to the nearest value representable by the element type,
// clamping integers to their range and saturating the 16-bit floats at ± the
// largest finite value, so a finite input quantizes to a finite, storable
// value. Dataset generators use this so that the float32 working
// representation is exactly representable in the storage type.
func (t ElemType) Quantize(v float32) float32 {
	switch t {
	case Uint8:
		r := math.RoundToEven(float64(v))
		if r < 0 {
			r = 0
		}
		if r > 255 {
			r = 255
		}
		return float32(r)
	case Int8:
		r := math.RoundToEven(float64(v))
		if r < -128 {
			r = -128
		}
		if r > 127 {
			r = 127
		}
		return float32(r)
	case Float16:
		h := F16FromF32(v)
		if h&0x7fff == 0x7c00 && !math.IsInf(float64(v), 0) {
			h = h&0x8000 | 0x7bff // rounded past the range: ±65504
		}
		return F16ToF32(h)
	case BFloat16:
		b := BF16FromF32(v)
		if b&0x7fff == 0x7f80 && !math.IsInf(float64(v), 0) {
			b = b&0x8000 | 0x7f7f
		}
		return BF16ToF32(b)
	case Float32:
		return v
	default:
		panic("vecmath: unknown ElemType")
	}
}

// AppendRow appends v to dst in t's storage encoding — the row format of
// internal/rows and of the typed kernels (rowkernels.go): uint8 and int8 the
// byte, fp16 and bf16 the 16-bit pattern, fp32 the IEEE bits, little-endian.
// It returns the extended slice and the index of the first component that
// is not finite or is not a value of the type (one Quantize would change),
// or -1 when every component round-trips. Integer zeros lose their sign;
// nothing else is rounded.
func (t ElemType) AppendRow(dst []byte, v []float32) ([]byte, int) {
	at := len(dst)
	dst = slices.Grow(dst, len(v)*t.Bytes())[:at+len(v)*t.Bytes()]
	out, bad := dst[at:], -1
	switch t {
	case Uint8:
		for i, x := range v {
			if !(x >= 0 && x <= 255 && x == float32(uint8(x))) && bad < 0 {
				bad = i
			}
			out[i] = uint8(x)
		}
	case Int8:
		for i, x := range v {
			if !(x >= -128 && x <= 127 && x == float32(int8(x))) && bad < 0 {
				bad = i
			}
			out[i] = uint8(int8(x))
		}
	case Float16:
		for i, x := range v {
			h := F16FromF32(x)
			if !(h&0x7c00 != 0x7c00 && F16ToF32(h) == x) && bad < 0 {
				bad = i
			}
			binary.LittleEndian.PutUint16(out[2*i:], h)
		}
	case BFloat16:
		for i, x := range v {
			b := BF16FromF32(x)
			if !(b&0x7f80 != 0x7f80 && BF16ToF32(b) == x) && bad < 0 {
				bad = i
			}
			binary.LittleEndian.PutUint16(out[2*i:], b)
		}
	case Float32:
		for i, x := range v {
			bits := math.Float32bits(x)
			if !(bits&0x7f800000 != 0x7f800000) && bad < 0 {
				bad = i
			}
			binary.LittleEndian.PutUint32(out[4*i:], bits)
		}
	default:
		panic("vecmath: unknown ElemType")
	}
	return dst, bad
}

// DecodeRow appends the float32 values of a row in t's storage encoding to
// dst: the exact inverse of AppendRow on every row it accepted.
func (t ElemType) DecodeRow(row []byte, dst []float32) []float32 {
	switch t {
	case Uint8:
		for _, c := range row {
			dst = append(dst, float32(c))
		}
	case Int8:
		for _, c := range row {
			dst = append(dst, float32(int8(c)))
		}
	case Float16:
		for i := 0; i+2 <= len(row); i += 2 {
			dst = append(dst, F16ToF32(binary.LittleEndian.Uint16(row[i:])))
		}
	case BFloat16:
		for i := 0; i+2 <= len(row); i += 2 {
			dst = append(dst, BF16ToF32(binary.LittleEndian.Uint16(row[i:])))
		}
	case Float32:
		for i := 0; i+4 <= len(row); i += 4 {
			dst = append(dst, math.Float32frombits(binary.LittleEndian.Uint32(row[i:])))
		}
	default:
		panic("vecmath: unknown ElemType")
	}
	return dst
}

// Encode maps a (type-representable) value to its order-preserving code.
// For all a, b representable in t: a < b iff Encode(a) < Encode(b).
// Negative floating-point zero is canonicalized to positive zero first.
func (t ElemType) Encode(v float32) uint32 {
	switch t {
	case Uint8:
		return uint32(uint8(v))
	case Int8:
		return uint32(uint8(int8(v))) ^ 0x80
	case Float16:
		return uint32(orderCode16(F16FromF32(canonZero(v))))
	case BFloat16:
		return uint32(orderCode16(BF16FromF32(canonZero(v))))
	case Float32:
		return orderCode32(math.Float32bits(canonZero(v)))
	default:
		panic("vecmath: unknown ElemType")
	}
}

// Decode is the inverse of Encode, returning the numeric value as float64.
// Codes falling in a NaN region of a float format decode to the infinity of
// the matching sign, which keeps interval endpoints sound (a widened bound
// is still a bound).
func (t ElemType) Decode(code uint32) float64 {
	switch t {
	case Uint8:
		return float64(uint8(code))
	case Int8:
		return float64(int8(uint8(code ^ 0x80)))
	case Float16:
		v := float64(F16ToF32(orderDecode16(uint16(code))))
		return cleanNaN(v, code&0x8000 != 0)
	case BFloat16:
		v := float64(BF16ToF32(orderDecode16(uint16(code))))
		return cleanNaN(v, code&0x8000 != 0)
	case Float32:
		v := float64(math.Float32frombits(orderDecode32(code)))
		return cleanNaN(v, code&0x80000000 != 0)
	default:
		panic("vecmath: unknown ElemType")
	}
}

// Interval returns the numeric range [lo, hi] a value must lie in when only
// the top known bits of its code are available. known == 0 yields the full
// range of the type; known == t.Bits() collapses to a point.
func (t ElemType) Interval(codePrefix uint32, known int) (lo, hi float64) {
	w := t.Bits()
	if known < 0 || known > w {
		panic(fmt.Sprintf("vecmath: known bits %d out of range for %s", known, t))
	}
	rest := uint(w - known)
	loCode := codePrefix << rest
	hiCode := loCode
	if rest > 0 {
		hiCode |= (uint32(1) << rest) - 1
	}
	return t.Decode(loCode), t.Decode(hiCode)
}

// FullRange returns the numeric range of the whole type (the interval with
// zero known bits).
func (t ElemType) FullRange() (lo, hi float64) { return t.Interval(0, 0) }

func canonZero(v float32) float32 {
	if v == 0 {
		return 0
	}
	return v
}

// cleanNaN replaces NaN decodes (codes inside a NaN pattern region) with the
// infinity of the matching code half so interval endpoints stay ordered.
func cleanNaN(v float64, positiveHalf bool) float64 {
	if math.IsNaN(v) {
		if positiveHalf {
			return math.Inf(1)
		}
		return math.Inf(-1)
	}
	return v
}

// orderCode32 converts IEEE-754 bits to an order-preserving code:
// positive values get the sign bit set, negative values are bitwise
// inverted. This is the classic radix-sortable float transform.
func orderCode32(bits uint32) uint32 {
	if bits&0x80000000 != 0 {
		return ^bits
	}
	return bits | 0x80000000
}

func orderDecode32(code uint32) uint32 {
	if code&0x80000000 != 0 {
		return code &^ 0x80000000
	}
	return ^code
}

func orderCode16(bits uint16) uint16 {
	if bits&0x8000 != 0 {
		return ^bits
	}
	return bits | 0x8000
}

func orderDecode16(code uint16) uint16 {
	if code&0x8000 != 0 {
		return code &^ 0x8000
	}
	return ^code
}

// EncodeVector encodes all elements of a vector into codes, appending to
// dst. The vector values must already be representable in t (use Quantize).
func (t ElemType) EncodeVector(v []float32, dst []uint32) []uint32 {
	for _, x := range v {
		dst = append(dst, t.Encode(x))
	}
	return dst
}
