package bitplane

import (
	"fmt"
	"math"

	"ansmet/internal/vecmath"
)

// sumBlock is the width of one partial-sum block, shared with the distance
// kernels so the fully-fetched bound reduces contributions in exactly the
// same order as vecmath.SquaredL2 / vecmath.Dot (see DESIGN.md, "Hot-path
// performance").
const sumBlock = vecmath.BlockDims

// Bound is the running distance lower bound of one vector under one query:
// each dimension contributes the least its known code interval can add to
// the distance, and the bound is the blocked total of those contributions.
// It is the fold of the distance unit in Fig. 5(d), written once for both
// line formats — the Bounder decodes bit-plane groups into it, the outlier
// bounder of internal/prefixelim decodes in-place slots into it.
//
// Per vector: Restart, then per fetched line Set every dimension the line
// revealed and Fold them. A Bound is not safe for concurrent use; after
// NewBound no method allocates.
type Bound struct {
	isL2 bool
	q64  []float64 // query coordinates widened once per query
	// ready is set by SetQuery: Restart needs the query-constant state.
	ready bool

	contrib []float64

	// blockSum[k] is the subtotal of contrib[k*sumBlock : (k+1)*sumBlock],
	// recomputed fresh (never incrementally adjusted — see the cancellation
	// note on sum below) whenever a folded line touches the block. The
	// total is then the left-to-right sum of the block subtotals: O(touched
	// blocks × sumBlock + Dim/sumBlock) per line instead of O(Dim).
	blockSum []float64

	// sum is the total of blockSum. Both levels are recomputed fresh from
	// their inputs after every folded line, never updated by adding and
	// subtracting deltas: IP contributions over wide float intervals can be
	// transiently enormous (~q·2^64) and an incremental add/subtract would
	// destroy the sum through catastrophic cancellation once they settle to
	// tiny exact products. Fresh blocked sums keep the fully-fetched bound
	// bitwise equal to the exact distance (the kernels reduce in the same
	// block order). Infinite contributions (IP over unbounded intervals)
	// propagate naturally: sum = +Inf ⇒ LB = -Inf.
	sum float64

	// Query-constant start state cached by SetQuery so Restart is three
	// copies.
	initContrib  []float64
	initBlockSum []float64
	initSum      float64
}

// NewBound sizes a bound for dim-dimensional vectors under metric m. Call
// SetQuery before use.
func NewBound(dim int, m vecmath.Metric) Bound {
	nblk := (dim + sumBlock - 1) / sumBlock
	return Bound{
		isL2:         m == vecmath.L2,
		q64:          make([]float64, dim),
		contrib:      make([]float64, dim),
		blockSum:     make([]float64, nblk),
		initContrib:  make([]float64, dim),
		initBlockSum: make([]float64, nblk),
	}
}

// SetQuery installs a new query and the start state every vector restarts
// from: each dimension's value known only to lie in [lo, hi].
func (b *Bound) SetQuery(query []float32, lo, hi float64) {
	if len(query) != len(b.q64) {
		panic(fmt.Sprintf("bitplane: query dim %d, bound dim %d", len(query), len(b.q64)))
	}
	for d, x := range query {
		b.q64[d] = float64(x)
		b.initContrib[d] = b.contribOf(b.q64[d], lo, hi)
	}
	b.initSum = vecmath.BlockSumsTotal(b.initContrib, b.initBlockSum, 0, len(b.initBlockSum)-1)
	b.ready = true
}

// Restart returns to the query's start state for a new vector.
func (b *Bound) Restart() {
	if !b.ready {
		panic("bitplane: Restart before SetQuery")
	}
	copy(b.contrib, b.initContrib)
	copy(b.blockSum, b.initBlockSum)
	b.sum = b.initSum
}

func (b *Bound) contribOf(q, lo, hi float64) float64 {
	if b.isL2 {
		return vecmath.L2IntervalContrib(q, lo, hi)
	}
	return vecmath.IPIntervalUpper(q, lo, hi)
}

// Set narrows dimension d to the interval [lo, hi]. The bound moves only at
// the next Fold.
func (b *Bound) Set(d int, lo, hi float64) {
	b.contrib[d] = b.contribOf(b.q64[d], lo, hi)
}

// Fold refreshes the block subtotals that dimensions [first, last) touch,
// re-totals the blocks (fresh at both levels; see sum) with the fused
// dispatched kernel in the canonical reduction order, and returns LB.
func (b *Bound) Fold(first, last int) float64 {
	b.sum = vecmath.BlockSumsTotal(b.contrib, b.blockSum, first/sumBlock, (last-1)/sumBlock)
	return b.LB()
}

// LB returns the current distance lower bound. Once every dimension holds
// its exact value it equals the exact distance, bitwise: the blocked
// reduction order here matches the vecmath distance kernels.
func (b *Bound) LB() float64 {
	if b.isL2 {
		return math.Sqrt(b.sum)
	}
	// sum = +Inf (some product unbounded above) yields -Inf: no bound.
	return -b.sum
}
