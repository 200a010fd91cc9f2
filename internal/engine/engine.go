// Package engine defines the distance-comparison abstraction that decouples
// index traversal (host CPU side) from distance computation (CPU kernels or
// NDP units). ANNS indexes call an Engine for every candidate vector; the
// engine may early-terminate the comparison once a provable lower bound
// exceeds the supplied threshold, and reports how much data it fetched so
// the timing models can charge the right memory traffic.
package engine

import "ansmet/internal/vecmath"

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

// Batcher is an optional capability of an Engine whose comparison is a plain
// distance over a row it can address ahead of time: a traversal that knows
// a whole hop's ids before it compares the first can hint every row and
// then take the hop's distances in one call, instead of discovering each
// row's address at the moment it needs the data. The traversal discovers
// it with one type assertion per search and applies the accept test
// (distance <= threshold) itself. Exact is the only implementer: an engine
// that early-terminates, retries, injects faults or counts needs a Result
// per task, and a wrapper that embeds Engine hides the capability, so it
// keeps seeing every Compare.
type Batcher interface {
	// Hint asks the memory system for the first cache lines of id's row.
	// It has no effect on any result.
	Hint(id uint32)
	// Distances appends to dst the distance of the current query to each
	// id, in order — the value Compare reports as Dist — and returns dst.
	Distances(ids []uint32, dst []float64) []float64
}

// Exact is the reference engine: it computes full-precision distances
// directly from the in-memory float vectors and counts a full fetch for
// every comparison. Index construction, the Base designs and the host
// serving routes (the beam and the exact scan over row-major vectors) use
// it.
type Exact struct {
	Vectors [][]float32
	M       vecmath.Metric
	// FullLines is the plain-layout line count per vector.
	FullLines int
	// Rows, when non-nil, is where StartQuery re-pins Vectors from: the
	// published rows of a store that grows under search (core.Store.Rows).
	// An id an index hands out is then always backed by a row, provided the
	// index view was captured before StartQuery — the same ordering the
	// early-termination engine's store snapshot relies on.
	Rows func() [][]float32

	query []float32
}

// NewExact builds an exact engine over the dataset.
func NewExact(vectors [][]float32, m vecmath.Metric, elem vecmath.ElemType) *Exact {
	dim := 0
	if len(vectors) > 0 {
		dim = len(vectors[0])
	}
	bytesPer := dim * elem.Bytes()
	lines := (bytesPer + 63) / 64
	if lines == 0 {
		lines = 1
	}
	return &Exact{Vectors: vectors, M: m, FullLines: lines}
}

// StartQuery implements Engine.
func (e *Exact) StartQuery(q []float32) {
	e.query = q
	if e.Rows != nil {
		e.Vectors = e.Rows()
	}
}

// Compare implements Engine.
func (e *Exact) Compare(id uint32, threshold float64) Result {
	d := e.M.Distance(e.query, e.Vectors[id])
	return Result{Dist: d, Accepted: d <= threshold, Lines: e.FullLines, LinesLocal: e.FullLines}
}

// Hint implements Batcher.
func (e *Exact) Hint(id uint32) { vecmath.Prefetch(e.Vectors[id]) }

// Distances implements Batcher.
func (e *Exact) Distances(ids []uint32, dst []float64) []float64 {
	for _, id := range ids {
		dst = append(dst, e.M.Distance(e.query, e.Vectors[id]))
	}
	return dst
}

// LinesPerVector implements Engine.
func (e *Exact) LinesPerVector() int { return e.FullLines }

// Metric implements Engine.
func (e *Exact) Metric() vecmath.Metric { return e.M }
