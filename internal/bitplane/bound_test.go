package bitplane

import (
	"math"
	"testing"

	"ansmet/internal/stats"
	"ansmet/internal/vecmath"
)

// lineReveal is the test's own account of what one line of a schedule
// reveals: dimensions [first, last) become known to bits post-prefix bits.
type lineReveal struct{ first, last, bits int }

// reveals walks a schedule's geometry from its definition — group i packs
// ⌊LineBits/n_i⌋ elements per line, lines in group order — independently
// of Layout's group table.
func reveals(sched Schedule, dim int) []lineReveal {
	var out []lineReveal
	bits := 0
	for _, n := range sched.Steps {
		bits += n
		per := LineBits / n
		for first := 0; first < dim; first += per {
			out = append(out, lineReveal{first, min(first+per, dim), bits})
		}
	}
	return out
}

// referenceLB is the bound from first principles: every dimension's known
// code prefix becomes an interval, the interval a contribution, and the
// contributions a scalar blocked sum.
func referenceLB(et vecmath.ElemType, m vecmath.Metric, q []float32, codes []uint32, knownBits []int, contrib []float64) float64 {
	w := et.Bits()
	for d, c := range codes {
		lo, hi := et.Interval(c>>uint(w-knownBits[d]), knownBits[d])
		if m == vecmath.L2 {
			contrib[d] = vecmath.L2IntervalContrib(float64(q[d]), lo, hi)
		} else {
			contrib[d] = vecmath.IPIntervalUpper(float64(q[d]), lo, hi)
		}
	}
	sum := vecmath.BlockedSum(contrib)
	if m == vecmath.L2 {
		return math.Sqrt(sum)
	}
	return -sum
}

// sharedPrefixCodes draws dim full-width codes whose top prefix bits all
// equal prefixVal and that decode to finite values.
func sharedPrefixCodes(r *stats.RNG, et vecmath.ElemType, dim, prefix int, prefixVal uint32) []uint32 {
	rest := uint(et.Bits() - prefix)
	codes := make([]uint32, dim)
	for d := range codes {
		for {
			c := prefixVal<<rest | uint32(r.Uint64())&(uint32(1)<<rest-1)
			if !math.IsInf(et.Decode(c), 0) {
				codes[d] = c
				break
			}
		}
	}
	return codes
}

// FuzzBounderMatchesIntervals checks every intermediate bound of the
// Bounder, bit for bit, against referenceLB after each consumed line, for
// every element type × schedule (plain, uniform, dual; with and without an
// eliminated prefix) × metric. Each query runs over more vectors than
// tableBuildLines, so the lazily built contribution tables are checked
// against the interval path as well.
func FuzzBounderMatchesIntervals(f *testing.F) {
	f.Add(uint64(1), uint16(95), uint8(2), uint8(3), uint8(1), uint8(2))
	f.Add(uint64(2), uint16(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(3), uint16(16), uint8(5), uint8(7), uint8(2), uint8(4))
	f.Add(uint64(4), uint16(199), uint8(11), uint8(1), uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, dimRaw uint16, prefixRaw, ncRaw, tcRaw, nfRaw uint8) {
		const vectors = tableBuildLines + 2
		dim := 1 + int(dimRaw)%200
		r := stats.NewRNG(seed)
		revealed := make([]int, dim)
		contrib := make([]float64, dim)
		for _, et := range []vecmath.ElemType{
			vecmath.Uint8, vecmath.Int8, vecmath.Float16, vecmath.BFloat16, vecmath.Float32,
		} {
			w := et.Bits()
			for _, prefix := range []int{0, 1 + int(prefixRaw)%(w-1)} {
				rem := w - prefix
				nc := 1 + int(ncRaw)%rem
				for _, sched := range []Schedule{
					{Prefix: prefix, Steps: []int{rem}},
					UniformSchedule(et, prefix, nc),
					DualSchedule(et, prefix, nc, int(tcRaw)%4, 1+int(nfRaw)%nc),
				} {
					l := MustLayout(et, dim, sched)
					lines := reveals(sched, dim)
					if len(lines) != l.LinesPerVector() {
						t.Fatalf("%v %v: %d lines, reference walks %d", et, sched, l.LinesPerVector(), len(lines))
					}
					prefixVal := uint32(0)
					if prefix > 0 {
						prefixVal = et.Encode(makeVec(r, et, 1)[0]) >> uint(rem)
					}
					buf := make([]byte, l.VectorBytes())
					suffix := make([]uint32, dim)
					for _, m := range []vecmath.Metric{vecmath.L2, vecmath.InnerProduct} {
						q := makeVec(r, et, dim)
						b := NewBounder(l, m, prefixVal)
						b.ResetQuery(q)
						for v := 0; v < vectors; v++ {
							codes := sharedPrefixCodes(r, et, dim, prefix, prefixVal)
							for d, c := range codes {
								suffix[d] = c & (uint32(1)<<uint(rem) - 1)
								revealed[d] = prefix
							}
							l.Transform(suffix, buf)
							b.Reset()
							want := referenceLB(et, m, q, codes, revealed, contrib)
							if got := b.LB(); math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%v %v %v vector %d: start bound %v, reference %v", et, sched, m, v, got, want)
							}
							for i, lr := range lines {
								got := b.ConsumeNext(buf[i*LineBytes : (i+1)*LineBytes])
								for d := lr.first; d < lr.last; d++ {
									revealed[d] = prefix + lr.bits
								}
								want := referenceLB(et, m, q, codes, revealed, contrib)
								if math.Float64bits(got) != math.Float64bits(want) {
									t.Fatalf("%v %v %v vector %d line %d: bound %v, reference %v", et, sched, m, v, i, got, want)
								}
							}
						}
					}
				}
			}
		}
	})
}
