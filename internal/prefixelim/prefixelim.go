// Package prefixelim implements ANSMET's offline common-prefix elimination
// (paper §4.2, Fig. 4). Across a dataset, the most significant code bits of
// elements are frequently identical (the low-entropy range of Fig. 3); a
// single copy of this common prefix is kept in the on-chip compute logic
// and stripped from storage, saving (prefixLen × dim − 1) bits per normal
// vector.
//
// Vectors containing elements that do not share the prefix are *outliers*
// (marked by a per-vector OlVec bit) and are stored in place with the
// special format of Fig. 4(c): each element slot carries an OlElm flag;
// outlier elements store how many of their leading bits match the common
// prefix plus the bits from the first mismatching position, truncated to
// fit. Truncation makes the outlier encoding lossy, so accepted outlier
// comparisons re-check against a full-precision backup copy — preserving
// the paper's no-accuracy-loss guarantee.
package prefixelim

import (
	"fmt"

	"ansmet/internal/bitplane"
	"ansmet/internal/vecmath"
)

// Config describes a prefix-elimination scheme for one dataset.
type Config struct {
	Elem      vecmath.ElemType
	Dim       int
	PrefixLen int    // P: eliminated bits per element; 0 disables elimination
	PrefixVal uint32 // value of the eliminated prefix
}

// Enabled reports whether elimination is active.
func (c Config) Enabled() bool { return c.PrefixLen > 0 }

// matchBits returns the width of the matched-prefix-length field in the
// outlier element format: ⌈log2(P)⌉ bits encode match lengths 0..P-1.
func (c Config) matchBits() int { return bitsFor(c.PrefixLen) }

// bitsFor returns ⌈log2(n)⌉ for n >= 1 (0 for n <= 1).
func bitsFor(n int) int {
	b := 0
	for 1<<uint(b) < n {
		b++
	}
	return b
}

// SlotBits returns the per-element storage width, identical for normal and
// outlier vectors so that both fit the same address slot.
func (c Config) SlotBits() int { return c.Elem.Bits() - c.PrefixLen }

// Validate checks internal consistency.
func (c Config) Validate() error {
	w := c.Elem.Bits()
	if c.Dim <= 0 {
		return fmt.Errorf("prefixelim: non-positive dim %d", c.Dim)
	}
	if c.PrefixLen < 0 || c.PrefixLen >= w {
		return fmt.Errorf("prefixelim: prefix length %d out of range", c.PrefixLen)
	}
	if c.PrefixLen > 0 {
		if c.PrefixVal>>uint(c.PrefixLen) != 0 {
			return fmt.Errorf("prefixelim: prefix value %#x wider than %d bits", c.PrefixVal, c.PrefixLen)
		}
		// Outlier elements need room for OlElm + matchLen + at least one bit.
		if c.SlotBits()-1-c.matchBits() < 1 {
			return fmt.Errorf("prefixelim: prefix %d leaves no room for outlier payload", c.PrefixLen)
		}
	}
	return nil
}

// SpaceSavedBits returns the bits saved per normal vector versus plain
// storage: prefixLen×dim minus the OlVec metadata bit (paper §4.2).
func (c Config) SpaceSavedBits() int {
	if !c.Enabled() {
		return 0
	}
	return c.PrefixLen*c.Dim - 1
}

// Analyze selects the longest common prefix such that the fraction of
// sample *elements* not sharing it stays within outlierBudget (the paper's
// default budget is 0.1%). samples are full-width element codes, one slice
// per sampled vector. A zero result disables elimination.
func Analyze(elem vecmath.ElemType, dim int, samples [][]uint32, outlierBudget float64) (prefixLen int, prefixVal uint32) {
	w := elem.Bits()
	total := 0
	for _, s := range samples {
		total += len(s)
	}
	if total == 0 {
		return 0, 0
	}
	bestLen, bestVal := 0, uint32(0)
	for l := 1; l < w; l++ {
		// The outlier format needs OlElm + matchLen + >=1 payload bit.
		if (w-l)-1-bitsFor(l) < 1 {
			break
		}
		counts := make(map[uint32]int)
		for _, s := range samples {
			for _, c := range s {
				counts[c>>uint(w-l)]++
			}
		}
		var modeVal uint32
		mode := -1
		for v, n := range counts {
			if n > mode || (n == mode && v < modeVal) {
				mode, modeVal = n, v
			}
		}
		outliers := total - mode
		if float64(outliers) <= outlierBudget*float64(total) {
			bestLen, bestVal = l, modeVal
		}
	}
	return bestLen, bestVal
}

// IsNormalVector reports whether every element code shares the configured
// common prefix (OlVec = 0).
func (c Config) IsNormalVector(codes []uint32) bool {
	if !c.Enabled() {
		return true
	}
	shift := uint(c.Elem.Bits() - c.PrefixLen)
	for _, code := range codes {
		if code>>shift != c.PrefixVal {
			return false
		}
	}
	return true
}

// SuffixCodes strips the common prefix from a normal vector's codes,
// appending to dst. Panics if the vector is not normal.
func (c Config) SuffixCodes(codes []uint32, dst []uint32) []uint32 {
	w := uint(c.Elem.Bits())
	p := uint(c.PrefixLen)
	mask := uint32(1)<<(w-p) - 1
	for _, code := range codes {
		if p > 0 && code>>(w-p) != c.PrefixVal {
			panic("prefixelim: SuffixCodes on outlier vector")
		}
		dst = append(dst, code&mask)
	}
	return dst
}

// outlierGeometry describes the sequential in-place layout of an outlier
// vector: fixed-width element slots packed into 64 B lines without
// straddling.
func (c Config) outlierGeometry() (slotW, perLine, lines int) {
	slotW = c.SlotBits()
	perLine = bitplane.LineBits / slotW
	lines = (c.Dim + perLine - 1) / perLine
	return
}

// OutlierLines returns how many 64 B lines the outlier encoding spans.
func (c Config) OutlierLines() int {
	_, _, lines := c.outlierGeometry()
	return lines
}

// EncodeOutlier writes the in-place outlier format of one vector into dst
// (which must hold OutlierLines()×64 bytes). Elements that individually
// match the prefix keep their full suffix minus one (dropped) low bit;
// mismatching elements store [matchLen | bits from the mismatch position],
// truncated at the low end.
func (c Config) EncodeOutlier(codes []uint32, dst []byte) {
	if len(codes) != c.Dim {
		panic("prefixelim: wrong code count")
	}
	slotW, perLine, lines := c.outlierGeometry()
	need := lines * bitplane.LineBytes
	if len(dst) < need {
		panic("prefixelim: dst too small")
	}
	for i := range dst[:need] {
		dst[i] = 0
	}
	w := uint(c.Elem.Bits())
	p := uint(c.PrefixLen)
	mb := uint(c.matchBits())
	for d, code := range codes {
		line := d / perLine
		off := (d % perLine) * slotW
		buf := dst[line*bitplane.LineBytes : (line+1)*bitplane.LineBytes]
		if code>>(w-p) == c.PrefixVal {
			// OlElm=0 (the zeroed flag bit): full suffix except the
			// dropped lowest bit.
			payload := (code & (1<<(w-p) - 1)) >> 1
			bitplane.PutBits(buf, off+1, slotW-1, payload)
		} else {
			// OlElm=1: matched length + bits from the mismatch position.
			matchLen := commonPrefixLen(code>>(w-p), c.PrefixVal, int(p))
			if matchLen >= int(p) {
				matchLen = int(p) - 1 // defensive; cannot happen
			}
			storedBits := slotW - 1 - int(mb)
			// Element bits [matchLen, matchLen+storedBits) counted from MSB.
			stored := (code >> (w - uint(matchLen) - uint(storedBits))) & (1<<uint(storedBits) - 1)
			bitplane.PutBits(buf, off, 1, 1)
			bitplane.PutBits(buf, off+1, int(mb), uint32(matchLen))
			bitplane.PutBits(buf, off+1+int(mb), storedBits, stored)
		}
	}
}

// DecodeOutlierIntervals decodes the outlier format of one fully fetched
// vector into per-dimension numeric intervals (truncated low bits widen the
// interval; this is what makes the format lossy but conservative).
func (c Config) DecodeOutlierIntervals(data []byte, lo, hi []float64) {
	slotW, perLine, lines := c.outlierGeometry()
	if len(data) < lines*bitplane.LineBytes {
		panic("prefixelim: data too small")
	}
	for d := 0; d < c.Dim; d++ {
		line := d / perLine
		off := (d % perLine) * slotW
		buf := data[line*bitplane.LineBytes : (line+1)*bitplane.LineBytes]
		prefix, known := c.decodeOutlierElem(buf, off, slotW)
		lo[d], hi[d] = c.Elem.Interval(prefix, known)
	}
}

// decodeOutlierElem reads one element slot, returning the known code prefix
// and its bit length.
func (c Config) decodeOutlierElem(buf []byte, off, slotW int) (prefix uint32, known int) {
	w := c.Elem.Bits()
	p := c.PrefixLen
	mb := c.matchBits()
	if bitplane.GetBits(buf, off, 1) == 0 {
		// Full suffix except the dropped lowest bit.
		payload := bitplane.GetBits(buf, off+1, slotW-1)
		return c.PrefixVal<<uint(slotW-1) | payload, w - 1
	}
	matchLen := int(bitplane.GetBits(buf, off+1, mb))
	storedBits := slotW - 1 - mb
	stored := bitplane.GetBits(buf, off+1+mb, storedBits)
	prefixPart := uint32(0)
	if matchLen > 0 {
		prefixPart = c.PrefixVal >> uint(p-matchLen)
	}
	return prefixPart<<uint(storedBits) | stored, matchLen + storedBits
}

func commonPrefixLen(a, b uint32, width int) int {
	for i := 0; i < width; i++ {
		shift := uint(width - 1 - i)
		if (a>>shift)&1 != (b>>shift)&1 {
			return i
		}
	}
	return width
}

// OutlierBounder incrementally consumes the lines of an outlier-format
// vector and maintains a distance lower bound, mirroring
// bitplane.Bounder for the sequential in-place encoding: it decodes each
// line's slots and folds them into a bitplane.Bound. Elements not yet
// fetched contribute their full type range (the OlVec flag tells the
// compute logic nothing about individual elements).
type OutlierBounder struct {
	cfg   Config
	bound bitplane.Bound
	next  int

	slotW, perLine, lines int
}

// NewOutlierBounder builds a bounder; call ResetQuery before use.
func NewOutlierBounder(cfg Config, m vecmath.Metric) *OutlierBounder {
	b := &OutlierBounder{cfg: cfg, bound: bitplane.NewBound(cfg.Dim, m)}
	b.slotW, b.perLine, b.lines = cfg.outlierGeometry()
	return b
}

// ResetQuery installs a new query.
func (b *OutlierBounder) ResetQuery(query []float32) {
	lo, hi := b.cfg.Elem.FullRange()
	b.bound.SetQuery(query, lo, hi)
	b.Reset()
}

// Reset prepares for a new vector under the same query.
func (b *OutlierBounder) Reset() {
	b.bound.Restart()
	b.next = 0
}

// Lines returns the number of 64 B lines of the outlier encoding.
func (b *OutlierBounder) Lines() int { return b.lines }

// ConsumeNext feeds the next line and returns the updated bound.
func (b *OutlierBounder) ConsumeNext(line []byte) float64 {
	if b.next >= b.lines {
		panic("prefixelim: consumed past end")
	}
	first := b.next * b.perLine
	last := first + b.perLine
	if last > b.cfg.Dim {
		last = b.cfg.Dim
	}
	for d := first; d < last; d++ {
		off := (d - first) * b.slotW
		prefix, known := b.cfg.decodeOutlierElem(line, off, b.slotW)
		lo, hi := b.cfg.Elem.Interval(prefix, known)
		b.bound.Set(d, lo, hi)
	}
	b.next++
	return b.bound.Fold(first, last)
}

// LB returns the current lower bound.
func (b *OutlierBounder) LB() float64 { return b.bound.LB() }

// RunTo consumes lines while fewer than limit (and fewer than Lines()) have
// been consumed, returning as soon as the bound exceeds stop; it returns the
// bound and the number of lines consumed so far, and a second call with a
// larger limit resumes (bitplane.Bounder.RunTo's contract). Because the
// encoding is lossy, even a fully consumed vector yields only a lower bound:
// a comparison must re-check an in-bound result against the full-precision
// backup before accepting it, and the tiered pipeline's stage 1, which wants
// only the bound, never fetches that backup.
func (b *OutlierBounder) RunTo(data []byte, stop float64, limit int) (lb float64, lines int) {
	if limit > b.lines {
		limit = b.lines
	}
	for b.next < limit {
		i := b.next
		if lb = b.ConsumeNext(data[i*bitplane.LineBytes : (i+1)*bitplane.LineBytes]); lb > stop {
			return lb, b.next
		}
	}
	return b.LB(), b.next
}
