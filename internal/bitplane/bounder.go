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

// tableMaxBits caps the known-suffix width for which per-query contribution
// tables are precomputed: a group whose cumulative suffix width is w needs a
// 2^w-entry table per dimension, so 8 bits (256 entries) is the largest
// worthwhile size.
const tableMaxBits = 8

// tableBuildLines is how many lines of a group must be consumed (per query)
// before its contribution table is built: table construction costs
// 2^w × Dim interval evaluations, which only amortizes over queries that
// run many comparisons. Short scans (e.g. kmeans assignment over a handful
// of centroids) stay on the live path.
const tableBuildLines = 8

// Bounder incrementally consumes the lines of one transformed vector (in
// storage order, as the NDP unit fetches them) and maintains a provable
// lower bound on the vector's distance to the query. It is the software
// model of the distance computing unit in Fig. 5(d).
//
// A Bounder is reusable across vectors via Reset and across queries via
// ResetQuery; it is not safe for concurrent use. At steady state (after the
// first query warmed its scratch) no method allocates.
type Bounder struct {
	layout *Layout
	metric vecmath.Metric
	isL2   bool

	// prefixVal is the eliminated common prefix value shared by all
	// elements (kept "inside the on-chip compute logic", Fig. 4(b)).
	prefixVal uint32

	query []float32
	q64   []float64 // query coordinates widened once per query

	// Per-dimension progressive state. partial accumulates the suffix bits
	// revealed so far, MSB-first; the bit count is implied by the group of
	// the last consumed line (cumBits), so no per-dimension counter is kept.
	partial []uint32
	contrib []float64

	// blockSum[k] is the subtotal of contrib[k*sumBlock : (k+1)*sumBlock],
	// recomputed fresh (never incrementally adjusted — see the cancellation
	// note on sum below) whenever a consumed line touches the block. The
	// total is then the left-to-right sum of the block subtotals: O(touched
	// blocks × sumBlock + Dim/sumBlock) per line instead of O(Dim).
	blockSum []float64

	// sum is the total of blockSum. Both levels are recomputed fresh from
	// their inputs after every consumed line, never updated by adding and
	// subtracting deltas: IP contributions over wide float intervals can be
	// transiently enormous (~q·2^64) and an incremental add/subtract would
	// destroy the sum through catastrophic cancellation once they settle to
	// tiny exact products. Fresh blocked sums keep the fully-fetched bound
	// bitwise equal to the exact distance (the kernels reduce in the same
	// block order). Infinite contributions (IP over unbounded intervals)
	// propagate naturally: sum = +Inf ⇒ LB = -Inf.
	sum      float64
	nextLine int

	// Query-constant state cached by ResetQuery so Reset is three copies
	// and a clear.
	initContrib  []float64
	initBlockSum []float64
	initSum      float64

	buf lineSpans // cached spans

	// cumBits[g] is the cumulative suffix width after group g; group g's
	// table (when built) has 2^cumBits[g] entries per dimension.
	cumBits []int
	// tbl[g], when tblReady[g], holds the per-query contribution of every
	// (dimension, revealed-suffix) pair for group g:
	// tbl[g][d<<cumBits[g] | suffix]. Built lazily once a query has
	// consumed tableBuildLines lines of the group (tblLines counts), so
	// ConsumeNext does no interval arithmetic at all on tabulated groups.
	tbl      [][]float64
	tblReady []bool
	tblLines []int
}

type lineSpans []lineSpan

// NewBounder creates a bounder for the layout/metric pair. prefixVal is the
// value of the eliminated common prefix (ignored when the schedule has no
// prefix). Call ResetQuery before use.
func NewBounder(l *Layout, m vecmath.Metric, prefixVal uint32) *Bounder {
	nblk := (l.Dim + sumBlock - 1) / sumBlock
	b := &Bounder{
		layout:       l,
		metric:       m,
		isL2:         m == vecmath.L2,
		prefixVal:    prefixVal,
		q64:          make([]float64, l.Dim),
		partial:      make([]uint32, l.Dim),
		contrib:      make([]float64, l.Dim),
		blockSum:     make([]float64, nblk),
		initContrib:  make([]float64, l.Dim),
		initBlockSum: make([]float64, nblk),
	}
	b.buf = make(lineSpans, l.LinesPerVector())
	for i := range b.buf {
		b.buf[i] = l.span(i)
	}
	ng := len(l.groups)
	b.cumBits = make([]int, ng)
	b.tbl = make([][]float64, ng)
	b.tblReady = make([]bool, ng)
	b.tblLines = make([]int, ng)
	bits := 0
	for g := range l.groups {
		bits += l.groups[g].bits
		b.cumBits[g] = bits
	}
	return b
}

// ResetQuery installs a new query vector and resets per-vector state.
func (b *Bounder) ResetQuery(query []float32) {
	if len(query) != b.layout.Dim {
		panic(fmt.Sprintf("bitplane: query dim %d, layout dim %d", len(query), b.layout.Dim))
	}
	b.query = query
	for d, x := range query {
		b.q64[d] = float64(x)
	}
	// With zero suffix bits known, every element's interval comes from the
	// common prefix alone — identical across dimensions.
	lo, hi := b.layout.Elem.Interval(b.prefixVal, b.layout.Sched.Prefix)
	for d := 0; d < b.layout.Dim; d++ {
		b.initContrib[d] = b.dimContrib(b.q64[d], lo, hi)
	}
	b.initSum = b.resumBlocks(b.initContrib, b.initBlockSum)
	// Contribution tables are query-dependent: invalidate, rebuild lazily.
	for g := range b.tblReady {
		b.tblReady[g] = false
		b.tblLines[g] = 0
	}
	b.reset()
}

// Reset prepares the bounder for a new vector under the same query.
func (b *Bounder) Reset() {
	if b.query == nil {
		panic("bitplane: Reset before ResetQuery")
	}
	b.reset()
}

func (b *Bounder) reset() {
	copy(b.contrib, b.initContrib)
	copy(b.blockSum, b.initBlockSum)
	b.sum = b.initSum
	b.nextLine = 0
	clear(b.partial)
}

// resumBlocks recomputes every block subtotal of contrib into dst and
// returns their left-to-right total, via the dispatched fused kernel.
func (b *Bounder) resumBlocks(contrib, dst []float64) float64 {
	return vecmath.BlockSumsTotal(contrib, dst, 0, len(dst)-1)
}

func (b *Bounder) dimContrib(q, lo, hi float64) float64 {
	if b.isL2 {
		return vecmath.L2IntervalContrib(q, lo, hi)
	}
	return vecmath.IPIntervalUpper(q, lo, hi)
}

// buildTable precomputes group gi's contribution table for the current
// query. The interval of a (group, revealed-suffix) pair is query
// independent, so each of the 2^w suffixes costs one Interval call plus Dim
// contribution evaluations.
func (b *Bounder) buildTable(gi int) {
	w := b.cumBits[gi]
	size := 1 << uint(w)
	dim := b.layout.Dim
	if b.tbl[gi] == nil {
		b.tbl[gi] = make([]float64, dim*size)
	}
	tbl := b.tbl[gi]
	elem := b.layout.Elem
	fullKnown := b.layout.Sched.Prefix + w
	for code := 0; code < size; code++ {
		codePrefix := b.prefixVal<<uint(w) | uint32(code)
		lo, hi := elem.Interval(codePrefix, fullKnown)
		if b.isL2 {
			for d := 0; d < dim; d++ {
				tbl[d<<uint(w)|code] = vecmath.L2IntervalContrib(b.q64[d], lo, hi)
			}
		} else {
			for d := 0; d < dim; d++ {
				tbl[d<<uint(w)|code] = vecmath.IPIntervalUpper(b.q64[d], lo, hi)
			}
		}
	}
	b.tblReady[gi] = true
}

// ConsumeNext feeds the next 64 B line of the vector (in storage order) and
// returns the updated lower bound. line must hold LineBytes bytes.
func (b *Bounder) ConsumeNext(line []byte) float64 {
	if b.nextLine >= b.layout.LinesPerVector() {
		panic("bitplane: consumed past end of vector")
	}
	sp := b.buf[b.nextLine]
	g := &b.layout.groups[sp.group]
	gbits := uint(g.bits)
	w := b.cumBits[sp.group]

	tabulable := w <= tableMaxBits
	if tabulable && !b.tblReady[sp.group] {
		b.tblLines[sp.group]++
		if b.tblLines[sp.group] >= tableBuildLines {
			b.buildTable(sp.group)
		}
	}
	if tabulable && b.tblReady[sp.group] {
		tbl := b.tbl[sp.group]
		for d := sp.firstDim; d < sp.lastDim; d++ {
			chunk := getBits(line, (d-sp.firstDim)*g.bits, g.bits)
			p := b.partial[d]<<gbits | chunk
			b.partial[d] = p
			b.contrib[d] = tbl[uint32(d)<<uint(w)|p]
		}
	} else {
		elem := b.layout.Elem
		fullKnown := b.layout.Sched.Prefix + w
		for d := sp.firstDim; d < sp.lastDim; d++ {
			chunk := getBits(line, (d-sp.firstDim)*g.bits, g.bits)
			p := b.partial[d]<<gbits | chunk
			b.partial[d] = p
			codePrefix := b.prefixVal<<uint(w) | p
			lo, hi := elem.Interval(codePrefix, fullKnown)
			b.contrib[d] = b.dimContrib(b.q64[d], lo, hi)
		}
	}

	// Blocked bound update: refresh only the touched block subtotals, then
	// re-total the blocks (fresh at both levels; see the field comment on
	// sum for why no incremental delta is ever applied). The fused
	// vecmath.BlockSumsTotal kernel does both steps in one dispatched call,
	// in the canonical reduction order.
	firstBlk := sp.firstDim / sumBlock
	lastBlk := (sp.lastDim - 1) / sumBlock
	b.sum = vecmath.BlockSumsTotal(b.contrib, b.blockSum, firstBlk, lastBlk)
	b.nextLine++
	return b.LB()
}

// LB returns the current distance lower bound. After all lines are consumed
// it equals the exact distance of the stored (possibly prefix-eliminated)
// vector to the query, bitwise: the blocked reduction order here matches
// the vecmath distance kernels.
func (b *Bounder) LB() float64 {
	if b.isL2 {
		return math.Sqrt(b.sum)
	}
	// sum = +Inf (some product unbounded above) yields -Inf: no bound.
	return -b.sum
}

// Done reports whether the whole vector has been consumed.
func (b *Bounder) Done() bool { return b.nextLine == b.layout.LinesPerVector() }

// Layout returns the layout this bounder was built for.
func (b *Bounder) Layout() *Layout { return b.layout }

// RunET consumes lines from data until either the lower bound exceeds the
// threshold (early termination) or the vector is exhausted. It returns the
// final bound and the number of lines fetched. This is the reference
// sequential execution of one comparison task on an NDP unit (§5.2).
func (b *Bounder) RunET(data []byte, threshold float64) (lb float64, lines int) {
	return b.RunTo(data, threshold, b.layout.LinesPerVector())
}

// RunTo consumes lines while fewer than limit (and fewer than the whole
// vector) have been consumed, returning as soon as the bound exceeds stop;
// it returns the bound and the number of lines consumed so far. It is
// resumable: a second call with a larger limit continues where the first
// stopped, which is how the adaptive mixed-precision compare escalates. At a
// limit of LinesPerVector() or more the vector may be fully fetched, and the
// fully-fetched bound is the exact distance, bitwise; a limit of 0 consumes
// nothing and returns the query-constant initial bound. The tiered
// pipeline's stage 1 passes at most LinesPerVector()-1, so what it gets back
// is always a strict lower bound and the fetch saving against a full
// comparison is guaranteed.
func (b *Bounder) RunTo(data []byte, stop float64, limit int) (lb float64, lines int) {
	if total := b.layout.LinesPerVector(); limit > total {
		limit = total
	}
	for b.nextLine < limit {
		i := b.nextLine
		if lb = b.ConsumeNext(data[i*LineBytes : (i+1)*LineBytes]); lb > stop {
			return lb, b.nextLine
		}
	}
	return b.LB(), b.nextLine
}

// RunETLocal additionally tracks the stricter localThreshold used to model
// per-rank local early termination under dimension partitioning (§5.3): it
// returns the line position at which the bound exceeds localThreshold
// (continuing past the global termination if needed to observe it), or the
// full line count if it never does. localThreshold must be >= threshold.
func (b *Bounder) RunETLocal(data []byte, threshold, localThreshold float64) (lb float64, lines, linesLocal int) {
	if localThreshold < threshold {
		localThreshold = threshold
	}
	total := b.layout.LinesPerVector()
	lines, linesLocal = -1, -1
	for b.nextLine < total {
		i := b.nextLine
		lb = b.ConsumeNext(data[i*LineBytes : (i+1)*LineBytes])
		if lines < 0 && lb > threshold {
			lines = b.nextLine
		}
		if lb > localThreshold {
			linesLocal = b.nextLine
			break
		}
	}
	if lines < 0 {
		// Never exceeded the global threshold before the local one (or the
		// vector ran out): report the fetch position actually reached.
		if linesLocal >= 0 {
			lines = linesLocal
		} else {
			lines = total
		}
		lb = b.LB()
	}
	if linesLocal < 0 {
		linesLocal = total
	}
	return lb, lines, linesLocal
}
