package bitplane

import "ansmet/internal/vecmath"

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
// model of the distance computing unit in Fig. 5(d): it decodes each line's
// bit-plane chunks and folds them into a Bound.
//
// A Bounder is reusable across vectors via Reset and across queries via
// ResetQuery; it is not safe for concurrent use. At steady state (after the
// first query warmed its scratch) no method allocates.
type Bounder struct {
	layout *Layout

	// prefixVal is the eliminated common prefix value shared by all
	// elements (kept "inside the on-chip compute logic", Fig. 4(b)).
	prefixVal uint32

	bound Bound

	// partial accumulates each dimension's suffix bits revealed so far,
	// MSB-first; the bit count is implied by the group of the last consumed
	// line (cumBits), so no per-dimension counter is kept.
	partial  []uint32
	nextLine int

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
	b := &Bounder{
		layout:    l,
		prefixVal: prefixVal,
		bound:     NewBound(l.Dim, m),
		partial:   make([]uint32, l.Dim),
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
	// With zero suffix bits known, every element's interval comes from the
	// common prefix alone — identical across dimensions.
	lo, hi := b.layout.Elem.Interval(b.prefixVal, b.layout.Sched.Prefix)
	b.bound.SetQuery(query, lo, hi)
	// Contribution tables are query-dependent: invalidate, rebuild lazily.
	for g := range b.tblReady {
		b.tblReady[g] = false
		b.tblLines[g] = 0
	}
	b.Reset()
}

// Reset prepares the bounder for a new vector under the same query.
func (b *Bounder) Reset() {
	b.bound.Restart()
	b.nextLine = 0
	clear(b.partial)
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
	q64 := b.bound.q64
	elem := b.layout.Elem
	fullKnown := b.layout.Sched.Prefix + w
	for code := 0; code < size; code++ {
		codePrefix := b.prefixVal<<uint(w) | uint32(code)
		lo, hi := elem.Interval(codePrefix, fullKnown)
		if b.bound.isL2 {
			for d := 0; d < dim; d++ {
				tbl[d<<uint(w)|code] = vecmath.L2IntervalContrib(q64[d], lo, hi)
			}
		} else {
			for d := 0; d < dim; d++ {
				tbl[d<<uint(w)|code] = vecmath.IPIntervalUpper(q64[d], lo, hi)
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
		contrib := b.bound.contrib
		for d := sp.firstDim; d < sp.lastDim; d++ {
			chunk := GetBits(line, (d-sp.firstDim)*g.bits, g.bits)
			p := b.partial[d]<<gbits | chunk
			b.partial[d] = p
			contrib[d] = tbl[uint32(d)<<uint(w)|p]
		}
	} else {
		// Bound.Set, written out: past the inlining budget, Set would cost
		// a call per dimension.
		bd := &b.bound
		elem := b.layout.Elem
		fullKnown := b.layout.Sched.Prefix + w
		for d := sp.firstDim; d < sp.lastDim; d++ {
			chunk := GetBits(line, (d-sp.firstDim)*g.bits, g.bits)
			p := b.partial[d]<<gbits | chunk
			b.partial[d] = p
			lo, hi := elem.Interval(b.prefixVal<<uint(w)|p, fullKnown)
			bd.contrib[d] = bd.contribOf(bd.q64[d], lo, hi)
		}
	}
	b.nextLine++
	return b.bound.Fold(sp.firstDim, sp.lastDim)
}

// LB returns the current distance lower bound. After all lines are consumed
// it equals the exact distance of the stored (possibly prefix-eliminated)
// vector to the query, bitwise.
func (b *Bounder) LB() float64 { return b.bound.LB() }

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
