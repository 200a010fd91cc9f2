// Package quantize implements the vector-quantization schemes the paper
// positions ANSMET against and discusses compatibility with (§2.1, §4.3):
//
//   - scalar quantization (SQ): elements mapped to uint8 by one affine
//     transform shared by every dimension, which is order-preserving per
//     dimension, so the quantized vectors drop directly into the existing
//     bit-plane early-termination store as Uint8 data;
//   - product quantization (PQ): the vector space is split into M
//     subspaces, each with its own k-means codebook; a vector is stored as
//     M one-byte codewords, and query distances are assembled from
//     memoized per-subspace tables (ADC). Partial *bits* of codewords are
//     meaningless, but partial *elements* still give a sound lower bound
//     (§4.3): summing the fetched subspaces' memoized distances and
//     bounding the rest conservatively.
package quantize

import (
	"fmt"
	"math"

	"ansmet/internal/hnsw"
	"ansmet/internal/kmeans"
	"ansmet/internal/stats"
	"ansmet/internal/vecmath"
)

// Scalar is an affine uint8 quantizer: one [Lo, Hi] range covers every
// dimension, which preserves L2 ordering exactly up to the rounding error.
type Scalar struct {
	Lo, Hi float32
}

// FitScalar learns the quantization range from the data.
func FitScalar(vectors [][]float32) (*Scalar, error) {
	if len(vectors) == 0 {
		return nil, fmt.Errorf("quantize: empty dataset")
	}
	dim := len(vectors[0])
	s := &Scalar{Lo: math.MaxFloat32, Hi: -math.MaxFloat32}
	for _, v := range vectors {
		if len(v) != dim {
			return nil, fmt.Errorf("quantize: ragged dataset")
		}
		for _, x := range v {
			if x < s.Lo {
				s.Lo = x
			}
			if x > s.Hi {
				s.Hi = x
			}
		}
	}
	if s.Hi <= s.Lo {
		s.Hi = s.Lo + 1
	}
	return s, nil
}

// Quantize maps a vector to its uint8 code values (stored as float32 so
// they plug directly into the Uint8 element codec).
func (s *Scalar) Quantize(v []float32) []float32 {
	out := make([]float32, len(v))
	for d, x := range v {
		c := math.RoundToEven(float64((x - s.Lo) / (s.Hi - s.Lo) * 255))
		if c < 0 {
			c = 0
		}
		if c > 255 {
			c = 255
		}
		out[d] = float32(c)
	}
	return out
}

// PQ is a product quantizer: M subspaces × K centroids.
type PQ struct {
	M, K   int
	SubDim int
	// Codebooks[m][k] is the k-th centroid of subspace m.
	Codebooks [][][]float32
}

// FitPQ learns the codebooks with per-subspace Lloyd k-means. dim must be
// divisible by m; k is at most 256 (one byte per codeword).
func FitPQ(vectors [][]float32, m, k, iters int, seed uint64) (*PQ, error) {
	if len(vectors) == 0 {
		return nil, fmt.Errorf("quantize: empty dataset")
	}
	dim := len(vectors[0])
	if m <= 0 || dim%m != 0 {
		return nil, fmt.Errorf("quantize: dim %d not divisible by m=%d", dim, m)
	}
	if k <= 0 || k > 256 {
		return nil, fmt.Errorf("quantize: k=%d out of (0,256]", k)
	}
	if k > len(vectors) {
		k = len(vectors)
	}
	if iters <= 0 {
		iters = 10
	}
	p := &PQ{M: m, K: k, SubDim: dim / m, Codebooks: make([][][]float32, m)}
	rng := stats.NewRNG(seed)
	for sub := 0; sub < m; sub++ {
		km, err := kmeans.Run(vectors, kmeans.Config{
			K: k, MaxIters: iters, Seed: rng.Uint64(),
			Offset: sub * p.SubDim, SubDim: p.SubDim,
		})
		if err != nil {
			return nil, err
		}
		p.Codebooks[sub] = km.Centroids
	}
	return p, nil
}

// Encode maps a vector to its M codewords.
func (p *PQ) Encode(v []float32) []uint8 {
	if len(v) != p.M*p.SubDim {
		panic(fmt.Sprintf("quantize: vector dim %d, want %d", len(v), p.M*p.SubDim))
	}
	out := make([]uint8, p.M)
	for m := 0; m < p.M; m++ {
		sub := v[m*p.SubDim : (m+1)*p.SubDim]
		best, bestD := 0, math.Inf(1)
		for ci, c := range p.Codebooks[m] {
			d := vecmath.SquaredL2(sub, c)
			if d < bestD {
				best, bestD = ci, d
			}
		}
		out[m] = uint8(best)
	}
	return out
}

// Decode reconstructs the centroid approximation of a code.
func (p *PQ) Decode(code []uint8) []float32 {
	out := make([]float32, 0, p.M*p.SubDim)
	for m, c := range code {
		out = append(out, p.Codebooks[m][c]...)
	}
	return out
}

// Table memoizes the per-subspace contribution of every codeword against
// the query (the ADC table of §2.1): squared sub-distances for L2, negated
// sub-inner-products for IP.
type Table struct {
	Metric vecmath.Metric
	// Cells[m][k] is subspace m / codeword k's contribution.
	Cells [][]float64
	// MinCell[m] is the smallest contribution in subspace m — the sound
	// per-subspace bound for unfetched codewords (for L2 it is >= 0; for
	// IP it can be negative, which is exactly why partial-dimension bounds
	// are weak there).
	MinCell []float64
}

// NewTable builds the ADC table for one query.
func (p *PQ) NewTable(q []float32, metric vecmath.Metric) *Table {
	t := &Table{Metric: metric, Cells: make([][]float64, p.M), MinCell: make([]float64, p.M)}
	for m := 0; m < p.M; m++ {
		sub := q[m*p.SubDim : (m+1)*p.SubDim]
		cells := make([]float64, len(p.Codebooks[m]))
		min := math.Inf(1)
		for ci, c := range p.Codebooks[m] {
			var v float64
			switch metric {
			case vecmath.L2:
				v = vecmath.SquaredL2(sub, c)
			default:
				v = -vecmath.Dot(sub, c)
			}
			cells[ci] = v
			if v < min {
				min = v
			}
		}
		t.Cells[m] = cells
		t.MinCell[m] = min
	}
	return t
}

// Distance computes the full ADC distance of a code.
func (t *Table) Distance(code []uint8) float64 {
	s := 0.0
	for m, c := range code {
		s += t.Cells[m][c]
	}
	if t.Metric == vecmath.L2 {
		return math.Sqrt(s)
	}
	return s
}

// partialBound is the lower bound on the ADC distance of a code whose
// first `fetched` codewords have been looked up (§4.3: "look up a subset of
// the memorized subspace distances for the partial elements and aggregate
// them"): s is Distance's running sum over those codewords, and each
// unfetched subspace contributes its minimal table cell, added in
// Distance's order.
func (t *Table) partialBound(s float64, fetched int) float64 {
	for _, mc := range t.MinCell[fetched:] {
		s += mc
	}
	if t.Metric == vecmath.L2 {
		return math.Sqrt(s)
	}
	return s
}

// ETScan runs an exact top-k scan over PQ codes (in ADC distance) with
// partial-element early termination: codewords of each vector are fetched
// subspace by subspace and the scan moves on as soon as the lower bound
// beats the running k-th best. Returns the neighbors, the codewords
// actually fetched, and the total codewords a full scan would read.
//
// An admitted vector's distance is Distance's, bit for bit. The bound after
// fetching subspaces 0..j continues Distance's own running sum with the
// MinCell of each unfetched subspace, in Distance's order. Rounded addition
// is monotone in each operand and MinCell[m] ≤ Cells[m][c], so every step
// of that sum is at most the same step of Distance's: the rounded bound is
// at most the rounded distance, and a rejection needs no margin. After the
// last subspace the bound is the distance.
func (t *Table) ETScan(codes [][]uint8, k int) (ids []uint32, dists []float64, fetched, total int) {
	heap := hnsw.Heap{Max: true}
	m := len(t.Cells)
	for vi, code := range codes {
		total += m
		threshold := math.Inf(1)
		if heap.Len() >= k {
			threshold = heap.Top().Dist
		}
		rejected := false
		s := 0.0 // Distance's partial sum
		for sub := 0; sub < m; sub++ {
			s += t.Cells[sub][code[sub]]
			fetched++
			if t.partialBound(s, sub+1) > threshold {
				rejected = true
				break
			}
		}
		if rejected {
			continue
		}
		if nb := (hnsw.Neighbor{ID: uint32(vi), Dist: t.Distance(code)}); heap.Len() < k {
			heap.Push(nb)
		} else if nb.Less(heap.Top()) {
			heap.ReplaceTop(nb)
		}
	}
	nn := heap.Sorted(nil)
	ids = make([]uint32, len(nn))
	dists = make([]float64, len(nn))
	for i, nb := range nn {
		ids[i], dists[i] = nb.ID, nb.Dist
	}
	return ids, dists, fetched, total
}
