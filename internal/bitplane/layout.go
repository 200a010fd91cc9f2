package bitplane

import (
	"encoding/binary"
	"fmt"

	"ansmet/internal/vecmath"
)

// group is the derived geometry of one bit-plane group within the layout.
type group struct {
	bits      int // code bits per element in this group
	perLine   int // elements per 64 B line (⌊512/bits⌋)
	firstLine int // global line index where this group starts
	lineCount int // ⌈Dim/perLine⌉
	startBit  int // cumulative post-prefix bit offset of this group's rows
}

// Layout maps vectors of a fixed element type and dimension onto the
// transformed in-memory format for a given schedule. A Layout is immutable
// and safe for concurrent use.
type Layout struct {
	Elem  vecmath.ElemType
	Dim   int
	Sched Schedule

	groups []group
	lines  int
}

// NewLayout derives the line geometry for the (elem, dim, schedule) triple.
func NewLayout(elem vecmath.ElemType, dim int, sched Schedule) (*Layout, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("bitplane: non-positive dimension %d", dim)
	}
	if err := sched.Validate(elem); err != nil {
		return nil, err
	}
	l := &Layout{Elem: elem, Dim: dim, Sched: sched}
	line, bit := 0, 0
	for _, n := range sched.Steps {
		per := LineBits / n
		cnt := (dim + per - 1) / per
		l.groups = append(l.groups, group{
			bits: n, perLine: per, firstLine: line, lineCount: cnt, startBit: bit,
		})
		line += cnt
		bit += n
	}
	l.lines = line
	return l, nil
}

// MustLayout is NewLayout that panics on error, for static configurations.
func MustLayout(elem vecmath.ElemType, dim int, sched Schedule) *Layout {
	l, err := NewLayout(elem, dim, sched)
	if err != nil {
		panic(err)
	}
	return l
}

// LinesPerVector returns how many 64 B lines one transformed vector spans.
func (l *Layout) LinesPerVector() int { return l.lines }

// VectorBytes returns the storage footprint of one transformed vector.
func (l *Layout) VectorBytes() int { return l.lines * LineBytes }

// SuffixBits returns the stored (post-prefix) bit width per element.
func (l *Layout) SuffixBits() int { return l.Elem.Bits() - l.Sched.Prefix }

// Transform packs the element codes of one vector into the transformed
// layout, writing exactly VectorBytes() bytes into dst. Codes must already
// have the common prefix removed if the schedule eliminates one (i.e. they
// are SuffixBits()-wide suffix codes).
func (l *Layout) Transform(suffixCodes []uint32, dst []byte) {
	if len(suffixCodes) != l.Dim {
		panic(fmt.Sprintf("bitplane: got %d codes, want %d", len(suffixCodes), l.Dim))
	}
	if len(dst) < l.VectorBytes() {
		panic("bitplane: dst too small")
	}
	for i := range dst[:l.VectorBytes()] {
		dst[i] = 0
	}
	suffixW := uint(l.SuffixBits())
	for _, g := range l.groups {
		// The chunk for element d is bits [startBit, startBit+bits) of its
		// suffix code, counted from the MSB of the suffix.
		shift := suffixW - uint(g.startBit) - uint(g.bits)
		mask := uint32(1)<<uint(g.bits) - 1
		for d := 0; d < l.Dim; d++ {
			chunk := (suffixCodes[d] >> shift) & mask
			line := g.firstLine + d/g.perLine
			slot := d % g.perLine
			PutBits(dst[line*LineBytes:(line+1)*LineBytes], slot*g.bits, g.bits, chunk)
		}
	}
}

// Reconstruct is the inverse of Transform: it reads all lines of a
// transformed vector and returns the suffix codes. Nothing in the search
// path decodes a whole vector; this is the tests' reference inverse.
func (l *Layout) Reconstruct(data []byte, dst []uint32) []uint32 {
	if len(data) < l.VectorBytes() {
		panic("bitplane: data too small")
	}
	if cap(dst) < l.Dim {
		dst = make([]uint32, l.Dim)
	}
	dst = dst[:l.Dim]
	for i := range dst {
		dst[i] = 0
	}
	for _, g := range l.groups {
		for d := 0; d < l.Dim; d++ {
			line := g.firstLine + d/g.perLine
			slot := d % g.perLine
			chunk := GetBits(data[line*LineBytes:(line+1)*LineBytes], slot*g.bits, g.bits)
			dst[d] = dst[d]<<uint(g.bits) | chunk
		}
	}
	return dst
}

// BitsAtLines returns how many post-prefix code bits per element are fully
// revealed after consuming the first `lines` lines: the cumulative bit
// width of the completely-consumed groups. A partially consumed group
// reveals its bits only for a prefix of the dimensions, so it does not
// count — the result is the precision guaranteed for *every* dimension.
func (l *Layout) BitsAtLines(lines int) int {
	bits := 0
	for _, g := range l.groups {
		if g.firstLine+g.lineCount > lines {
			break
		}
		bits += g.bits
	}
	return bits
}

// LinesForBits returns the smallest line count whose fully-consumed groups
// reveal at least `bits` post-prefix code bits for every element — the
// fetch depth a bounder schedule needs to reach the requested precision.
// bits <= 0 returns 0; requests beyond SuffixBits() saturate at
// LinesPerVector().
func (l *Layout) LinesForBits(bits int) int {
	if bits <= 0 {
		return 0
	}
	got := 0
	for _, g := range l.groups {
		got += g.bits
		if got >= bits {
			return g.firstLine + g.lineCount
		}
	}
	return l.lines
}

// GroupLineCounts returns the number of lines in each fetch group — the
// pipelining boundaries for CPU early-termination designs.
func (l *Layout) GroupLineCounts() []int {
	out := make([]int, len(l.groups))
	for i, g := range l.groups {
		out[i] = g.lineCount
	}
	return out
}

// lineSpan describes which elements a given line reveals.
type lineSpan struct {
	group    int // index into groups
	firstDim int
	lastDim  int // exclusive
}

// span locates line idx within the group structure.
func (l *Layout) span(idx int) lineSpan {
	for gi, g := range l.groups {
		if idx < g.firstLine+g.lineCount {
			rel := idx - g.firstLine
			first := rel * g.perLine
			last := first + g.perLine
			if last > l.Dim {
				last = l.Dim
			}
			return lineSpan{group: gi, firstDim: first, lastDim: last}
		}
	}
	panic(fmt.Sprintf("bitplane: line index %d out of range (%d lines)", idx, l.lines))
}

// PutBits ORs the low `bits` bits of v into line starting at bit offset
// `off` (bit 0 = MSB of byte 0), MSB first; the target bits must be clear.
// It writes both line formats: bit-plane chunks and outlier slots.
func PutBits(line []byte, off, bits int, v uint32) {
	for i := 0; i < bits; i++ {
		if v&(1<<uint(bits-1-i)) != 0 {
			p := off + i
			line[p>>3] |= 0x80 >> uint(p&7)
		}
	}
}

// GetBits reads `bits` bits starting at bit offset `off`, MSB first (0 bits
// read as 0). It reads both line formats: bit-plane chunks and outlier
// slots. Hot path of every line consumption: reads one big-endian 64-bit
// window and shifts the chunk out, falling back to a byte loop only when
// the window would run past the buffer (chunks never straddle lines, so
// off+bits <= 8*len(line) always holds; bits <= 32 and off&7 <= 7 keep the
// chunk inside the 64-bit window).
func GetBits(line []byte, off, bits int) uint32 {
	b0 := off >> 3
	var v uint64
	if b0+8 <= len(line) {
		v = binary.BigEndian.Uint64(line[b0:])
	} else {
		for i := b0; i < len(line); i++ {
			v = v<<8 | uint64(line[i])
		}
		v <<= uint(8 * (b0 + 8 - len(line)))
	}
	v <<= uint(off & 7)
	return uint32(v >> uint(64-bits))
}
