// Package engine defines the distance-comparison abstraction that decouples
// index traversal (host CPU side) from distance computation (CPU kernels or
// NDP units). ANNS indexes call an Engine for every candidate vector; the
// engine may early-terminate the comparison once a provable lower bound
// exceeds the supplied threshold, and reports how much data it fetched so
// the timing models can charge the right memory traffic.
package engine

import (
	"fmt"
	"math"

	"ansmet/internal/rows"
	"ansmet/internal/vecmath"
)

// Result describes the outcome of one comparison task.
type Result struct {
	// Dist is the exact distance when Accepted; otherwise it is the lower
	// bound at which the comparison terminated.
	Dist float64
	// Accepted reports Dist <= threshold with Dist exact. Early-terminated
	// comparisons are always rejections (the bound proved Dist > threshold).
	Accepted bool
	// Lines is the number of 64 B data lines fetched from the vector's
	// primary storage under sequential (single-rank) early termination.
	Lines int
	// LinesLocal is the sequential-line position at which *local* early
	// termination fires when the vector is dimension-split across ranks:
	// each rank can only compare its own partial bound against the full
	// threshold (paper §5.3), which is a stricter test, so LinesLocal >=
	// Lines. It equals the full line count when local ET never fires.
	// The timing model divides it by the segment count to get per-rank
	// fetch counts.
	LinesLocal int
	// BackupLines is the number of extra 64 B lines fetched from the
	// full-precision backup copy (outlier re-check path).
	BackupLines int
	// Outlier reports whether the vector used the outlier encoding.
	Outlier bool
}

// TotalLines returns primary plus backup lines fetched.
func (r Result) TotalLines() int { return r.Lines + r.BackupLines }

// Engine performs distance comparisons for one query at a time.
// Implementations are not safe for concurrent use; create one per worker.
type Engine interface {
	// StartQuery installs the query vector for subsequent comparisons.
	StartQuery(q []float32)
	// Compare computes the comparison of the current query against the
	// stored vector id with the given rejection threshold.
	Compare(id uint32, threshold float64) Result
	// LinesPerVector returns how many lines a full fetch of one vector
	// takes from primary storage (used by timing and utilization stats).
	LinesPerVector() int
	// Metric returns the distance metric in effect.
	Metric() vecmath.Metric
}

// DefaultEf is the beam width (the paper's efSearch) of a query that names
// none: 2k, and never below 32.
func DefaultEf(k int) int { return max(2*k, 32) }

// Batcher is an optional capability of an Engine whose comparison is a plain
// distance over a row it can address ahead of time: a traversal that knows
// a whole hop's ids before it compares the first can hint every row and
// then take the hop's distances in one call, instead of discovering each
// row's address at the moment it needs the data. The traversal discovers
// it with one type assertion per search and applies the accept test
// (distance <= threshold) itself. Exact is the only implementer: an engine
// that early-terminates or counts needs a Result per task, and a wrapper
// that embeds Engine hides the capability, so it keeps seeing every
// Compare.
type Batcher interface {
	// Hint asks the memory system for the first cache lines of each id's
	// row. It has no effect on any result.
	Hint(ids []uint32)
	// Distances appends to dst the distance of the current query to each
	// id, in order — the value Compare reports as Dist — and returns dst.
	Distances(ids []uint32, dst []float64) []float64
}

// Exact is the reference engine: full-precision distances straight from the
// rows of a slab, in their element type, with the typed SIMD kernels — bit
// for bit Metric.Distance on the decoded values — and a full fetch counted
// per comparison. The Base designs and the host serving routes use it.
type Exact struct {
	M vecmath.Metric
	// FullLines is the plain-layout line count per vector.
	FullLines int

	rows *rows.Slab
	// view is the slab as StartQuery pinned it: on a slab that grows under
	// search, every id an index view captured before StartQuery can hand out
	// has a row in it (hnsw/mutate.go).
	view  rows.View
	kern  vecmath.RowKernel    // the slab's element type × the metric, chosen once
	kern4 vecmath.RowKernel4   // and its four-row form
	run   vecmath.RowKernelRun // and its run form
	// screen is the run screen of the slab's element type × the metric, nil
	// when there is none at this kernel level or the rows are shorter than
	// vecmath.ScreenMinDim; heads is whether it reads the slab's head plane
	// (float32 rows) rather than the rows. sq is the current query prepared
	// for it (StartScreen), bound the screen's bound for the top distance
	// boundTop.
	screen          vecmath.RowScreen
	heads           bool
	sq              vecmath.ScreenQuery
	boundTop, bound float64
	query           []byte     // the current query in the slab's encoding (reused scratch)
	four            [4][]byte  // Distances' rows for one kern4 call
	out             [4]float64 // and their results
}

// NewExact builds an exact engine over the dataset, packed into a slab of
// its own; it panics on ragged input and on values that are not elem's.
func NewExact(vectors [][]float32, m vecmath.Metric, elem vecmath.ElemType) *Exact {
	return NewExactOver(rows.MustPack(vectors, elem), m)
}

// NewExactOver builds an exact engine over a slab it shares with whoever
// else reads (and appends to) it.
func NewExactOver(rs *rows.Slab, m vecmath.Metric) *Exact {
	im := vecmath.Active()
	e := &Exact{M: m, FullLines: rows.Lines(rs.Elem(), rs.Dim()), rows: rs,
		kern: im.RowKernel(rs.Elem(), m), kern4: im.RowKernel4(rs.Elem(), m), run: im.RowKernelRun(rs.Elem(), m)}
	if rs.Dim() >= vecmath.ScreenMinDim {
		e.screen = im.RowScreen(rs.Elem(), m)
	}
	e.heads = rs.Elem() == vecmath.Float32
	return e
}

// StartQuery implements Engine: it pins the slab and encodes q into the
// slab's element type. Every caller hands over a quantized query of the
// indexed dimension (Database.do quantizes; generated datasets are); one
// that is not is a bug and panics, like a length mismatch in the kernels.
func (e *Exact) StartQuery(q []float32) {
	e.view = e.rows.View()
	var bad int
	e.query, bad = e.rows.Elem().AppendRow(e.query[:0], q)
	if bad >= 0 || len(q) != e.rows.Dim() {
		panic(fmt.Sprintf("engine: query of %d dims (component %d) is not a %d-dim %v vector", len(q), bad, e.rows.Dim(), e.rows.Elem()))
	}
}

// Len returns the number of rows the current query sees.
func (e *Exact) Len() int { return e.view.Len() }

// Distance is Metric.Distance between the current query and row id: the
// value Compare reports as Dist.
func (e *Exact) Distance(id uint32) float64 {
	return e.finish(e.kern(e.query, e.view.Row(id)))
}

// finish turns a kernel's result into Metric.Distance.
func (e *Exact) finish(d float64) float64 {
	if e.M == vecmath.L2 {
		return math.Sqrt(d)
	}
	return -d
}

// Compare implements Engine.
func (e *Exact) Compare(id uint32, threshold float64) Result {
	d := e.Distance(id)
	return Result{Dist: d, Accepted: d <= threshold, Lines: e.FullLines, LinesLocal: e.FullLines}
}

// Hint implements Batcher.
func (e *Exact) Hint(ids []uint32) {
	for _, id := range ids {
		vecmath.Prefetch(e.view.Row(id))
	}
}

// Distances implements Batcher: four ids per kernel call, the last 1–3
// padded with a repeat of the last. The four-row kernel is the one-row
// kernel bit for bit on every row, so each distance is the one Compare
// reports.
func (e *Exact) Distances(ids []uint32, dst []float64) []float64 {
	for len(ids) > 0 {
		n := min(len(ids), 4)
		for i := range e.four {
			e.four[i] = e.view.Row(ids[min(i, n-1)])
		}
		e.kern4(e.query, &e.four, &e.out)
		for _, d := range e.out[:n] {
			dst = append(dst, e.finish(d))
		}
		ids = ids[n:]
	}
	return dst
}

// RunDistances stores in out the distance of the current query to rows
// start, start+1, ..., start+len(out)-1 — the values Compare reports as
// Dist — from one run-kernel call over the rows in place. The rows must lie
// in one slab chunk (rows.View.Run): the exact scan's runs divide
// rows.ChunkRows.
func (e *Exact) RunDistances(start uint32, out []float64) {
	e.run(e.query, e.view.Run(start, len(out)), out)
	for i, d := range out {
		out[i] = e.finish(d)
	}
}

// StartScreen prepares the current query for RunSurvivors and reports
// whether the rows have a screen: the float types at a kernel level with
// one (AVX2 with FMA, and F16C for fp16), rows of vecmath.ScreenMinDim
// elements or more. Only the exact scan calls it, once per query, so no
// other route pays for the float32 query it lays out. The screen of float32
// rows reads their heads (rows.View.HeadRun), half the bytes of the rows;
// fp16 and bf16 rows are screened as they are.
func (e *Exact) StartScreen() bool {
	if e.screen == nil {
		return false
	}
	e.sq.Prepare(e.rows.Elem(), e.M, e.query)
	e.boundTop, e.bound = math.NaN(), math.NaN()
	return true
}

// RunSurvivors screens rows start, start+1, ..., start+n-1 (n ≤ 64, in one
// slab chunk, as RunDistances' runs) against the top distance top, after
// StartScreen reported a screen: bit i of the result is clear only if row
// start+i's distance — the value Compare reports — is proven greater than
// top; every other bit below n is set.
func (e *Exact) RunSurvivors(start uint32, n int, top float64) uint64 {
	if math.Float64bits(top) != math.Float64bits(e.boundTop) {
		e.boundTop, e.bound = top, screenBound(e.M, top)
	}
	if e.heads {
		heads, rho, nu := e.view.HeadRun(start, n)
		return e.screen(&e.sq, heads, rho, nu, e.bound)
	}
	return e.screen(&e.sq, e.view.Run(start, n), nil, nil, e.bound)
}

// screenBound is the screen's bound for the top distance top: a kernel
// value past it is a distance greater than top. The dot's distance is its
// negation, which is exact, so its bound is −top. L2's distance is the
// kernel value's square root, correctly rounded and so monotone, so its
// bound is the largest float64 whose square root is at most top; below +0
// (and at a NaN) it is top itself: every kernel value lies above a negative
// top (a squared L2 is never below +0) and none above a NaN.
func screenBound(m vecmath.Metric, top float64) float64 {
	if m != vecmath.L2 {
		return -top
	}
	if !(top >= 0) || math.IsInf(top, 1) {
		return top
	}
	u := top * top
	for math.Sqrt(u) > top {
		u = math.Nextafter(u, 0)
	}
	for v := math.Nextafter(u, math.Inf(1)); math.Sqrt(v) <= top; v = math.Nextafter(u, math.Inf(1)) {
		u = v
	}
	return u
}

// LinesPerVector implements Engine.
func (e *Exact) LinesPerVector() int { return e.FullLines }

// Metric implements Engine.
func (e *Exact) Metric() vecmath.Metric { return e.M }
