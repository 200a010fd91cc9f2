// Screen kernels: a float32 pass over a run of rows that proves which rows'
// float64 kernel results lie past a bound, so a scan can skip those rows'
// exact compare.
//
// A screen takes eight float32 lanes per row and accumulates with fused
// multiply-adds: the inner product's Σ qᵢ·xᵢ beside Σ |qᵢ|·|xᵢ| (the
// margin's scale), squared L2's Σ (qᵢ − xᵢ)², every term ≥ 0. Lane j of a
// row takes elements j, j+8, j+16, ... of its body; a row whose length is
// not a multiple of eight ends with one more step over its last eight
// elements, the ones the body already took masked to zero. A row of dim
// elements so costs every lane m = ⌈dim/8⌉ roundings, and the 8 → 1
// reduction three more.
//
// The proof (DESIGN.md, "The scan's head screen"): with u = 2⁻²⁴,
// γ(n) = n·u/(1 − n·u), and S, A the float32 sums,
//
//   - inner product: |S − Σ qᵢxᵢ| ≤ γ(m+3)·Σ|qᵢxᵢ| + η and
//     Σ|qᵢxᵢ| ≤ (A + η)/(1 − γ(m+3)), where η bounds the absolute error of
//     the fused steps that land among the subnormals (2⁻¹⁵⁰ a step; an add
//     whose result is subnormal is exact). The float64 kernel multiplies
//     exactly and its sum is off by at most γ₆₄(dim+3)·Σ|qᵢxᵢ|. So the
//     kernel's value is at most S + k·A + e₀, and a row is rejected when
//     that is below the bound;
//   - squared L2: the float32 difference is off by a factor (1 ± u), the
//     sum of non-negative terms by (1 ± γ(m+3)) and η, and the float64
//     kernel's sum of squares by (1 − γ₆₄(dim+3)) at worst, so the
//     kernel's value is at least c·S − e₀, and a row is rejected when that
//     is above the bound.
//
// k, c and e₀ carry slack for their own float64 evaluation. A lane that
// overflows or meets a NaN leaves S or A non-finite, and such a row always
// survives. Rows shorter than eight elements have no eight-element step to
// end on; the screen passes them all.
//
// That is the screen of fp16 and bf16 rows, read as they are. Float32 rows
// are screened through their heads instead (see "The head screen" below):
// half the bytes.
package vecmath

import (
	"encoding/binary"
	"math"
)

// ScreenMinDim is the shortest row a screen kernel proves anything about:
// every row of a run of shorter rows survives.
const ScreenMinDim = 8

// RowScreen screens a run of rows against bound: bit i of the result is
// clear only if the float64 kernel's value for row i, RowKernel(q, row i),
// lies strictly past bound — above it under L2, below it under the inner
// product and cosine (the kernels' dot). Every other bit up to the row
// count is set, and so is every bit of a row the screen cannot prove
// anything about. A run holds at most 64 rows. fp16 and bf16 rows are read
// as they are: rows is the run's rows laid end to end, and rho and nu are
// not read. Float32 rows are read through their heads: rows is the run's
// heads laid end to end and rho and nu their norms (Head; rows.View.HeadRun).
type RowScreen func(sq *ScreenQuery, rows []byte, rho, nu []float32, bound float64) uint64

// rowScreens is an implementation's screen table, [type][0] squared L2,
// [type][1] dot; a nil entry is a type without a screen.
type rowScreens [Float32 + 1][2]RowScreen

// RowScreen returns this implementation's screen for rows of type t under
// metric m, or nil when it has none: the 8-bit integer types (their kernels
// are exact integer sums already), the portable level and CPUs without FMA.
// The float32 screen reads heads (see RowScreen).
func (im Impl) RowScreen(t ElemType, m Metric) RowScreen {
	if m == L2 {
		return im.screens[t][0]
	}
	return im.screens[t][1]
}

// ScreenQuery is a query prepared for a screen kernel: its values widened
// to float32 (exact for every float type) and laid out the way the kernel
// reads them, beside the margin's constants. The zero value is ready for
// Prepare, which reuses its buffer from query to query.
type ScreenQuery struct {
	// plan holds the query padded to whole steps of eight (the body, then
	// the tail step's eight values aligned with the row's last eight
	// elements), then |q| in the same layout, then the tail step's lane
	// mask: all ones on the lanes the body has not already taken.
	// A float32 row's head has its own plan (prepareHead).
	plan   []float32
	dim    int
	stride int // bytes of a screened row: a row, or a float32 row's head
	body   int // bytes of a screened row the body's whole steps take
	tail   int // byte offset in a row of its last eight elements, -1 without a tail step
	k, e0  float64
	// For heads: under the inner product qn and qk, the factors of ρ and ν;
	// under L2 inv ≥ 1/(1 − γ₆₄), and the radius r for the last bound
	// asked about (rFor).
	qn, qk, inv float64
	rFor, r     float64
}

// Prepare lays out the query q, a row in t's storage encoding, for the
// screens of t under m.
func (sq *ScreenQuery) Prepare(t ElemType, m Metric, q []byte) {
	if t == Float32 {
		sq.prepareHead(m, q)
		return
	}
	w := t.Bytes()
	dim := len(q) / w
	sq.dim, sq.stride = dim, len(q)
	body := dim &^ 7
	steps := body + 8 // the plan always reserves a tail step
	if cap(sq.plan) < 2*steps+8 {
		sq.plan = make([]float32, 2*steps+8)
	}
	sq.plan = sq.plan[:2*steps+8]
	clear(sq.plan)
	vals := t.DecodeRow(q, sq.plan[:0:steps])
	sq.body, sq.tail = body*w, -1
	qs, abs, mask := sq.plan[:steps], sq.plan[steps:2*steps], sq.plan[2*steps:]
	if r := dim - body; r > 0 && dim >= ScreenMinDim {
		sq.tail = (dim - 8) * w
		copy(qs[body:], vals[dim-8:])
		allOnes := math.Float32frombits(^uint32(0))
		for j := 8 - r; j < 8; j++ {
			mask[j] = allOnes
		}
	}
	for i, v := range qs {
		abs[i] = float32(math.Abs(float64(v)))
	}
	sq.k, sq.e0 = screenMargin(dim, m)
}

// screenMargin returns the constants of the screen's proof for rows of dim
// elements under m (see the package comment above): k and e₀ of the inner
// product's S + k·A + e₀, or c and e₀ of squared L2's c·S − e₀.
func screenMargin(dim int, m Metric) (k, e0 float64) {
	steps := float64((dim + 7) / 8)
	u32 := 0x1p-24
	g32 := gamma(steps+3, u32)
	g64 := gamma(float64(dim)+3, 0x1p-53)
	// η: every one of a row's 8·m fused steps may leave 2⁻¹⁵⁰ among the
	// subnormals, grown by the roundings after it; twice 8·m of them covers
	// that.
	eta := (steps + 1) * 0x1p-146
	if m == L2 {
		return (1 - g64) / ((1 + u32) * (1 + u32) * (1 + g32)) * (1 - 0x1p-40), 2 * eta
	}
	return (g32+g64)/(1-g32)*(1+0x1p-20) + 0x1p-48, 4 * eta
}

// gamma is γ(n) = n·u/(1 − n·u) at unit roundoff u.
func gamma(n, u float64) float64 { return n * u / (1 - n*u) }

// screenOf wraps a screen kernel: it takes the run's whole fours and
// passes the 1–3 rows after them, and every row shorter than ScreenMinDim.
func screenOf(fours func(plan []float32, rows []byte, n, stride, body, tail int, k, e0, bound float64) uint64) RowScreen {
	return func(sq *ScreenQuery, rows []byte, _, _ []float32, bound float64) uint64 {
		whole, rest := sq.fours(len(rows))
		if whole == 0 {
			return rest
		}
		return fours(sq.plan, rows[:whole*sq.stride], whole, sq.stride, sq.body, sq.tail, sq.k, sq.e0, bound) | rest
	}
}

// fours splits a run of size bytes of screened rows into the rows a kernel
// takes, a multiple of four, and the survivor bits of the rest: the 1–3
// rows after the last four, or every row when there is no four or the rows
// are shorter than ScreenMinDim.
func (sq *ScreenQuery) fours(size int) (whole int, rest uint64) {
	n := size / sq.stride
	all := uint64(1)<<n - 1 // every bit at n = 64
	if sq.dim < ScreenMinDim || n < 4 {
		return 0, all
	}
	whole = n &^ 3
	return whole, all &^ (uint64(1)<<whole - 1)
}

// The head screen.
//
// A float32 row x is screened through its head x̂: the top 16 bits of every
// element (a bf16 truncation toward zero, so x̂ᵢ and the residual xᵢ − x̂ᵢ
// share a sign and |x̂ᵢ| ≤ |xᵢ|), padded with zeros to whole steps of
// eight, beside two norms rounded up to float32: ρ ≥ ‖x − x̂‖ and
// ν ≥ ‖x̂‖ (Head). The screen sums over x̂ as above, in steps of sixteen
// elements laid out as eight even and eight odd ones, into two
// accumulators per row that are added before the fold: every term meets at
// most m + 4 roundings, m = ⌈dim/8⌉, and a padded zero adds exactly zero.
//
//   - Inner product. Σ qᵢxᵢ ≤ Σ qᵢx̂ᵢ + ‖q‖ρ and Σ|qᵢxᵢ| ≤ ‖q‖ν + ‖q‖ρ
//     (Cauchy–Schwarz, on each of x̂ and x − x̂), so the float64 kernel's
//     value is at most S + γ(m+4)·‖q‖ν + η + γ₆₄·(‖q‖ν + ‖q‖ρ) + ‖q‖ρ:
//     B = S + e₀ + qk·ν + qn·ρ, qk ≥ (γ(m+4) + γ₆₄)·‖q‖ and
//     qn ≥ (1 + γ₆₄)·‖q‖. The norms replace the screen's Σ|qᵢ||xᵢ|, so a
//     step is one fused multiply-add a row. A row is rejected when B is
//     below the bound, and survives when S is −∞: without Σ|qᵢ||xᵢ| an
//     overflowed lane would not otherwise show.
//   - Squared L2. c·S − e₀ ≤ (1 − γ₆₄)·‖q − x̂‖² as above, and
//     ‖q − x‖ ≥ ‖q − x̂‖ − ρ. A row is rejected when c·S − e₀ > (r + ρ)²
//     with r ≥ √(bound/(1 − γ₆₄)): then ‖q − x‖ > r, and the kernel's
//     value is at least (1 − γ₆₄)·‖q − x‖² > bound.
//
// The constants carry slack for their own float64 evaluation and the
// kernel's: 2⁻⁴⁸·‖q‖ in qk covers three roundings of B (|S| ≤ ‖q‖ν, near
// enough), 2⁻⁴⁰ in qn and c those of ρ's terms, and e₀ is 4η.

// HeadBytes is the bytes of a head of a dim-element float32 row: two an
// element, padded to whole steps of eight.
func HeadBytes(dim int) int { return (dim + 7) &^ 7 * 2 }

// Head writes the head of the float32 row (storage encoding, dim·4 bytes)
// to head (HeadBytes(dim) bytes, its padding zeroed) and returns its norms
// rounded up to float32: ρ ≥ ‖x − x̂‖ and ν ≥ ‖x̂‖. Every residual and every
// head element is exact in float64, and so is its square; the sums' error,
// √'s and the conversion's are all taken upward.
func Head(row, head []byte) (rho, nu float32) {
	dim := len(row) / 4
	// Two partial sums a norm, so the adds do not wait on each other; any
	// order of adding non-negative terms keeps the same error bound.
	var rr0, rr1, hh0, hh1 float64
	i := 0
	for ; i+2 <= dim; i += 2 {
		b0, b1 := binary.LittleEndian.Uint32(row[4*i:]), binary.LittleEndian.Uint32(row[4*i+4:])
		binary.LittleEndian.PutUint32(head[2*i:], b0>>16|b1&^0xffff)
		h0, h1 := float64(math.Float32frombits(b0&^0xffff)), float64(math.Float32frombits(b1&^0xffff))
		r0, r1 := float64(math.Float32frombits(b0))-h0, float64(math.Float32frombits(b1))-h1
		rr0, rr1 = rr0+r0*r0, rr1+r1*r1
		hh0, hh1 = hh0+h0*h0, hh1+h1*h1
	}
	if i < dim {
		b := binary.LittleEndian.Uint32(row[4*i:])
		binary.LittleEndian.PutUint16(head[2*i:], uint16(b>>16))
		h := float64(math.Float32frombits(b &^ 0xffff))
		r := float64(math.Float32frombits(b)) - h
		rr0, hh0 = rr0+r*r, hh0+h*h
	}
	clear(head[2*dim:])
	up := func(ss float64) float32 {
		v := math.Sqrt(ss) * (1 + float64(dim+4)*0x1p-53)
		if v > math.MaxFloat32 {
			return float32(math.Inf(1))
		}
		f := float32(v)
		if float64(f) < v {
			f = math.Nextafter32(f, float32(math.Inf(1)))
		}
		return f
	}
	return up(rr0 + rr1), up(hh0 + hh1)
}

// prepareHead lays out q, a float32 row, for the head screens under m: the
// plan is the query padded as the heads are, each sixteen-element step's
// eight even elements then its eight odd ones, and a last eight-element
// step as it is.
func (sq *ScreenQuery) prepareHead(m Metric, q []byte) {
	dim := len(q) / 4
	hb := HeadBytes(dim)
	sq.dim, sq.stride, sq.body, sq.tail = dim, hb, hb&^31, -1
	if cap(sq.plan) < hb/2 {
		sq.plan = make([]float32, hb/2)
	}
	sq.plan = sq.plan[:hb/2]
	clear(sq.plan)
	var qq float64
	for i := range dim {
		v := math.Float32frombits(binary.LittleEndian.Uint32(q[4*i:]))
		qq += float64(v) * float64(v) // exact products, a sum of non-negative terms
		j := i
		if b := i &^ 15; 2*b < sq.body {
			j = b + (i&1)*8 + (i&15)/2
		}
		sq.plan[j] = v
	}
	steps := float64((dim + 7) / 8)
	g32 := gamma(steps+4, 0x1p-24)
	g64 := gamma(float64(dim)+3, 0x1p-53)
	eta := (steps + 1) * 0x1p-146
	// qq is within γ₆₄(dim) of Σ qᵢ²: ‖q‖ ≤ √qq·(1 + γ₆₄), and 2⁻⁴⁰ covers
	// the roundings of √ and of the products.
	norm := math.Sqrt(qq) * (1 + g64) * (1 + 0x1p-40)
	sq.qk = ((g32+g64)*(1+0x1p-20) + 0x1p-48) * norm
	sq.qn = (1 + g64) * norm * (1 + 0x1p-40)
	sq.inv = 1 / (1 - g64) * (1 + 0x1p-50)
	sq.rFor, sq.r = math.NaN(), math.NaN()
	if m == L2 {
		sq.k, sq.e0 = (1-g64)/((1+0x1p-24)*(1+0x1p-24)*(1+g32))*(1-0x1p-40), 2*eta
	} else {
		sq.k, sq.e0 = 0, 4*eta
	}
}

// radius returns r ≥ √(bound/(1 − γ₆₄)), inflated past the four roundings
// of its evaluation, for the L2 head screen. Below +0 it is 0 (every
// squared distance is past a negative bound), and at a NaN bound a NaN,
// which every row survives.
func (sq *ScreenQuery) radius(bound float64) float64 {
	if math.Float64bits(bound) != math.Float64bits(sq.rFor) {
		sq.rFor, sq.r = bound, math.Sqrt(max(bound, 0)*sq.inv)*(1+0x1p-50)
	}
	return sq.r
}

// headDotOf and headL2Of wrap the head kernels as screenOf wraps the others.
func headDotOf(fours func(plan []float32, heads []byte, rho, nu []float32, n, stride, body int, e0, qn, qk, bound float64) uint64) RowScreen {
	return func(sq *ScreenQuery, heads []byte, rho, nu []float32, bound float64) uint64 {
		whole, rest := sq.fours(len(heads))
		if whole == 0 {
			return rest
		}
		return fours(sq.plan, heads[:whole*sq.stride], rho[:whole], nu[:whole], whole, sq.stride, sq.body, sq.e0, sq.qn, sq.qk, bound) | rest
	}
}

func headL2Of(fours func(plan []float32, heads []byte, rho, nu []float32, n, stride, body int, c, e0, r float64) uint64) RowScreen {
	return func(sq *ScreenQuery, heads []byte, rho, nu []float32, bound float64) uint64 {
		whole, rest := sq.fours(len(heads))
		if whole == 0 {
			return rest
		}
		return fours(sq.plan, heads[:whole*sq.stride], rho[:whole], nu[:whole], whole, sq.stride, sq.body, sq.k, sq.e0, sq.radius(bound)) | rest
	}
}
