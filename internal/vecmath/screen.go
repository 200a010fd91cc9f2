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
// The proof (DESIGN.md, "The scan's float32 screen"): with u = 2⁻²⁴,
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
package vecmath

import "math"

// ScreenMinDim is the shortest row a screen kernel proves anything about:
// every row of a run of shorter rows survives.
const ScreenMinDim = 8

// RowScreen screens the rows of a run laid end to end in rows, each of the
// prepared query's length, against bound: bit i of the result is clear only
// if the float64 kernel's value for row i, RowKernel(q, row i), lies
// strictly past bound — above it under L2, below it under the inner
// product and cosine (the kernels' dot). Every other bit up to the row
// count is set, and so is every bit of a row the screen cannot prove
// anything about. A run holds at most 64 rows.
type RowScreen func(sq *ScreenQuery, rows []byte, bound float64) uint64

// rowScreens is an implementation's screen table, [type][0] squared L2,
// [type][1] dot; a nil entry is a type without a screen.
type rowScreens [Float32 + 1][2]RowScreen

// RowScreen returns this implementation's screen for rows of type t under
// metric m, or nil when it has none: the 8-bit integer types (their kernels
// are exact integer sums already), the portable level and CPUs without FMA.
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
	plan   []float32
	dim    int
	stride int // bytes of a row
	body   int // bytes of a row the body's whole steps take
	tail   int // byte offset in a row of its last eight elements, -1 without a tail step
	k, e0  float64
}

// Prepare lays out the query q, a row in t's storage encoding, for the
// screens of t under m.
func (sq *ScreenQuery) Prepare(t ElemType, m Metric, q []byte) {
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
	gamma := func(n, u float64) float64 { return n * u / (1 - n*u) }
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

// screenOf wraps a screen kernel: it takes the run's whole fours and
// passes the 1–3 rows after them, and every row shorter than ScreenMinDim.
func screenOf(fours func(plan []float32, rows []byte, n, stride, body, tail int, k, e0, bound float64) uint64) RowScreen {
	return func(sq *ScreenQuery, rows []byte, bound float64) uint64 {
		n := len(rows) / sq.stride
		all := uint64(1)<<n - 1 // every bit at n = 64
		if sq.dim < ScreenMinDim || n < 4 {
			return all
		}
		whole := n &^ 3
		return fours(sq.plan, rows[:whole*sq.stride], whole, sq.stride, sq.body, sq.tail, sq.k, sq.e0, bound) | all&^(uint64(1)<<whole-1)
	}
}
