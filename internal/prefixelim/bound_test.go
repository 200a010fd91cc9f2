package prefixelim

import (
	"math"
	"math/bits"
	"testing"

	"ansmet/internal/bitplane"
	"ansmet/internal/stats"
	"ansmet/internal/vecmath"
)

// slotReference is what the outlier format keeps of one full-width code,
// derived from the format's definition rather than by reading a slot: an
// element sharing the prefix keeps all but its lowest bit; any other keeps
// its leading bits up to the first mismatch with the prefix plus the
// stored bits after it, truncated to the slot.
func slotReference(cfg Config, code uint32) (prefix uint32, known int) {
	w, p := cfg.Elem.Bits(), cfg.PrefixLen
	if code>>uint(w-p) == cfg.PrefixVal {
		return code >> 1, w - 1
	}
	match := bits.LeadingZeros32((code>>uint(w-p))^cfg.PrefixVal) - (32 - p)
	known = match + cfg.SlotBits() - 1 - cfg.matchBits()
	return code >> uint(w-known), known
}

// FuzzOutlierBounderMatchesIntervals is bitplane's
// FuzzBounderMatchesIntervals for the outlier format: after every consumed
// line the bound must equal, bit for bit, the scalar blocked sum of the
// contributions of each element's interval — its slot's (slotReference)
// once fetched, the type's full range before — for every element type ×
// metric, with and without a prefix.
func FuzzOutlierBounderMatchesIntervals(f *testing.F) {
	f.Add(uint64(1), uint16(95), uint8(2))
	f.Add(uint64(2), uint16(0), uint8(0))
	f.Add(uint64(3), uint16(199), uint8(9))
	f.Fuzz(func(t *testing.T, seed uint64, dimRaw uint16, prefixRaw uint8) {
		const vectors = 10
		dim := 1 + int(dimRaw)%200
		r := stats.NewRNG(seed)
		contrib := make([]float64, dim)
		for _, et := range []vecmath.ElemType{
			vecmath.Uint8, vecmath.Int8, vecmath.Float16, vecmath.BFloat16, vecmath.Float32,
		} {
			w := et.Bits()
			// A random finite code whose leading bits serve as the prefix.
			finite := func() uint32 {
				for {
					if c := uint32(r.Uint64()) & uint32(1<<uint(w)-1); !math.IsInf(et.Decode(c), 0) {
						return c
					}
				}
			}
			p := 1 + int(prefixRaw)%(w-1)
			for (Config{Elem: et, Dim: dim, PrefixLen: p}).Validate() != nil {
				p--
			}
			for _, cfg := range []Config{
				{Elem: et, Dim: dim},
				{Elem: et, Dim: dim, PrefixLen: p, PrefixVal: finite() >> uint(w-p)},
			} {
				perLine := bitplane.LineBits / cfg.SlotBits()
				for _, m := range []vecmath.Metric{vecmath.L2, vecmath.InnerProduct} {
					q := make([]float32, dim)
					for d := range q {
						q[d] = et.Quantize(float32(r.NormFloat64() * 64))
					}
					b := NewOutlierBounder(cfg, m)
					b.ResetQuery(q)
					buf := make([]byte, b.Lines()*bitplane.LineBytes)
					codes := make([]uint32, dim)
					for v := 0; v < vectors; v++ {
						for d := range codes {
							codes[d] = finite()
							if r.Intn(2) == 0 && cfg.PrefixLen > 0 {
								rest := uint(w - cfg.PrefixLen)
								codes[d] = cfg.PrefixVal<<rest | codes[d]&(uint32(1)<<rest-1)
							}
						}
						cfg.EncodeOutlier(codes, buf)
						b.Reset()
						lo, hi := et.FullRange()
						for d := range contrib {
							contrib[d] = intervalContrib(m, float64(q[d]), lo, hi)
						}
						got := b.LB()
						for i := 0; ; i++ {
							sum := vecmath.BlockedSum(contrib)
							want := -sum
							if m == vecmath.L2 {
								want = math.Sqrt(sum)
							}
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%v P=%d %v vector %d after %d lines: bound %v, reference %v", et, cfg.PrefixLen, m, v, i, got, want)
							}
							if i == b.Lines() {
								break
							}
							got = b.ConsumeNext(buf[i*bitplane.LineBytes : (i+1)*bitplane.LineBytes])
							for d := i * perLine; d < min((i+1)*perLine, dim); d++ {
								lo, hi := et.Interval(slotReference(cfg, codes[d]))
								contrib[d] = intervalContrib(m, float64(q[d]), lo, hi)
							}
						}
					}
				}
			}
		}
	})
}

func intervalContrib(m vecmath.Metric, q, lo, hi float64) float64 {
	if m == vecmath.L2 {
		return vecmath.L2IntervalContrib(q, lo, hi)
	}
	return vecmath.IPIntervalUpper(q, lo, hi)
}
