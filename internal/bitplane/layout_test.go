package bitplane

import (
	"testing"

	"ansmet/internal/stats"
	"ansmet/internal/vecmath"
)

func TestLayoutGeometryPlain(t *testing.T) {
	// 128-dim fp32 plain layout: 16 elems per line -> 8 lines (512 B).
	l := MustLayout(vecmath.Float32, 128, PlainSchedule(vecmath.Float32))
	if l.LinesPerVector() != 8 {
		t.Errorf("fp32x128 plain = %d lines, want 8", l.LinesPerVector())
	}
	// 128-dim uint8 plain: 64 per line -> 2 lines.
	l = MustLayout(vecmath.Uint8, 128, PlainSchedule(vecmath.Uint8))
	if l.LinesPerVector() != 2 {
		t.Errorf("uint8x128 plain = %d lines, want 2", l.LinesPerVector())
	}
}

func TestLayoutGeometryPaperExample(t *testing.T) {
	// §4.2: "a 64 B chunk may contain the next highest 9 bits from 56
	// dimensions, with 8 padding bits at the end".
	s := Schedule{Steps: []int{9, 23}}
	l := MustLayout(vecmath.Float32, 56, s)
	if l.groups[0].perLine != 56 {
		t.Errorf("9-bit group holds %d elems/line, want 56", l.groups[0].perLine)
	}
	if l.groups[0].lineCount != 1 {
		t.Errorf("9-bit group of 56 dims spans %d lines, want 1", l.groups[0].lineCount)
	}
}

func TestLayoutGeometryBitSerial(t *testing.T) {
	// SIFT-like: 128 dims, 1-bit steps -> each line uses only 128 of 512
	// bits (the 75% waste the paper attributes to NDP-BitET on SIFT).
	l := MustLayout(vecmath.Uint8, 128, UniformSchedule(vecmath.Uint8, 0, 1))
	if l.LinesPerVector() != 8 {
		t.Errorf("bit-serial uint8x128 = %d lines, want 8", l.LinesPerVector())
	}
	// Plain layout would use 2 lines; bit-serial wastes 4x.
}

func TestTransformReconstructRoundTrip(t *testing.T) {
	r := stats.NewRNG(42)
	types := []vecmath.ElemType{vecmath.Uint8, vecmath.Int8, vecmath.Float16, vecmath.Float32}
	for _, et := range types {
		w := et.Bits()
		scheds := []Schedule{
			PlainSchedule(et),
			UniformSchedule(et, 0, 1),
			UniformSchedule(et, 0, 4),
			DualSchedule(et, 0, 4, 1, 2),
		}
		if w > 4 {
			scheds = append(scheds, UniformSchedule(et, 3, 2), DualSchedule(et, 2, 3, 1, 1))
		}
		for _, s := range scheds {
			for _, dim := range []int{1, 7, 64, 129} {
				l := MustLayout(et, dim, s)
				codes := make([]uint32, dim)
				sw := uint(l.SuffixBits())
				for d := range codes {
					codes[d] = uint32(r.Uint64()) & (1<<sw - 1)
				}
				buf := make([]byte, l.VectorBytes())
				l.Transform(codes, buf)
				back := l.Reconstruct(buf, nil)
				for d := range codes {
					if back[d] != codes[d] {
						t.Fatalf("%v %v dim=%d: code[%d] %#x -> %#x", et, s, dim, d, codes[d], back[d])
					}
				}
			}
		}
	}
}

func TestTransformDeterministic(t *testing.T) {
	l := MustLayout(vecmath.Uint8, 32, UniformSchedule(vecmath.Uint8, 0, 4))
	codes := make([]uint32, 32)
	for i := range codes {
		codes[i] = uint32(i * 7 % 256)
	}
	a := make([]byte, l.VectorBytes())
	b := make([]byte, l.VectorBytes())
	l.Transform(codes, a)
	l.Transform(codes, b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("transform is not deterministic")
		}
	}
}

func TestTransformGroupOrdering(t *testing.T) {
	// With a 4+4 schedule on uint8, the first line(s) must contain the high
	// nibbles of all elements: a vector of codes 0xAB should place 0xA
	// values in group 0 and 0xB in group 1.
	dim := 8
	l := MustLayout(vecmath.Uint8, dim, UniformSchedule(vecmath.Uint8, 0, 4))
	codes := make([]uint32, dim)
	for d := range codes {
		codes[d] = uint32(d)<<4 | 0xF // high nibble = d, low = 0xF
	}
	buf := make([]byte, l.VectorBytes())
	l.Transform(codes, buf)
	// Group 0: 128 elems/line, dim=8 fits line 0; element d at bit d*4.
	for d := 0; d < dim; d++ {
		hi := GetBits(buf[:LineBytes], d*4, 4)
		if hi != uint32(d) {
			t.Errorf("high nibble of dim %d = %#x, want %#x", d, hi, d)
		}
		lo := GetBits(buf[LineBytes:2*LineBytes], d*4, 4)
		if lo != 0xF {
			t.Errorf("low nibble of dim %d = %#x, want 0xF", d, lo)
		}
	}
}

func TestPutGetBits(t *testing.T) {
	r := stats.NewRNG(9)
	line := make([]byte, LineBytes)
	type entry struct {
		off, bits int
		val       uint32
	}
	var entries []entry
	off := 0
	for off < LineBits-20 {
		bits := 1 + r.Intn(20)
		v := uint32(r.Uint64()) & (1<<uint(bits) - 1)
		PutBits(line, off, bits, v)
		entries = append(entries, entry{off, bits, v})
		off += bits
	}
	for _, e := range entries {
		if got := GetBits(line, e.off, e.bits); got != e.val {
			t.Fatalf("GetBits(off=%d,bits=%d) = %#x, want %#x", e.off, e.bits, got, e.val)
		}
	}
}

func TestNewLayoutErrors(t *testing.T) {
	if _, err := NewLayout(vecmath.Uint8, 0, PlainSchedule(vecmath.Uint8)); err == nil {
		t.Error("zero dim should fail")
	}
	if _, err := NewLayout(vecmath.Uint8, 8, Schedule{Steps: []int{3}}); err == nil {
		t.Error("short schedule should fail")
	}
}

func TestSpanCoversAllDims(t *testing.T) {
	l := MustLayout(vecmath.Float32, 100, DualSchedule(vecmath.Float32, 0, 9, 2, 3))
	covered := make([]int, 100)
	for i := 0; i < l.LinesPerVector(); i++ {
		sp := l.span(i)
		for d := sp.firstDim; d < sp.lastDim; d++ {
			covered[d]++
		}
	}
	want := len(l.groups)
	for d, c := range covered {
		if c != want {
			t.Errorf("dim %d covered %d times, want %d (once per group)", d, c, want)
		}
	}
}
