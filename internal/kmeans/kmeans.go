// Package kmeans provides Lloyd's k-means clustering over float32 vectors
// (or slices of their dimensions), shared by the IVF index and the product
// quantizer, plus an early-termination-accelerated assignment step that
// realizes the paper's claim (§4.1) that the lower-bound machinery "can
// even be used in accurate search algorithms like kmeans": when assigning a
// vector to its nearest centroid, centroids whose partial-bit bound already
// exceeds the current best distance are dropped without fetching the rest
// of their data.
package kmeans

import (
	"fmt"
	"math"

	"ansmet/internal/bitplane"
	"ansmet/internal/layout"
	"ansmet/internal/stats"
	"ansmet/internal/vecmath"
)

// Config controls clustering.
type Config struct {
	K        int
	MaxIters int
	Seed     uint64
	// Offset/SubDim cluster only dimensions [Offset, Offset+SubDim) of each
	// vector; SubDim == 0 uses the full vector.
	Offset, SubDim int
}

// Result is a fitted clustering.
type Result struct {
	Centroids [][]float32
	Assign    []int
	Iters     int
}

// Run fits k-means with Lloyd iterations (L2 geometry). Empty clusters are
// reseeded from random vectors.
func Run(vectors [][]float32, cfg Config) (*Result, error) {
	n := len(vectors)
	if n == 0 {
		return nil, fmt.Errorf("kmeans: empty dataset")
	}
	k := cfg.K
	if k <= 0 {
		return nil, fmt.Errorf("kmeans: non-positive k")
	}
	if k > n {
		k = n
	}
	iters := cfg.MaxIters
	if iters <= 0 {
		iters = 15
	}
	off := cfg.Offset
	sd := cfg.SubDim
	if sd == 0 {
		sd = len(vectors[0]) - off
	}
	if off < 0 || sd <= 0 || off+sd > len(vectors[0]) {
		return nil, fmt.Errorf("kmeans: slice [%d,%d) out of dim %d", off, off+sd, len(vectors[0]))
	}
	rng := stats.NewRNG(cfg.Seed)

	res := &Result{Centroids: make([][]float32, k), Assign: make([]int, n)}
	perm := rng.Perm(n)
	for i := range res.Centroids {
		c := make([]float32, sd)
		copy(c, vectors[perm[i%n]][off:off+sd])
		res.Centroids[i] = c
	}
	for it := 0; it < iters; it++ {
		res.Iters = it + 1
		changed := 0
		for vi, v := range vectors {
			best, bestD := 0, math.Inf(1)
			sub := v[off : off+sd]
			for ci, c := range res.Centroids {
				d := sqDist(sub, c)
				if d < bestD {
					best, bestD = ci, d
				}
			}
			if res.Assign[vi] != best || it == 0 {
				changed++
			}
			res.Assign[vi] = best
		}
		if changed == 0 {
			break
		}
		sums := make([][]float64, k)
		counts := make([]int, k)
		for i := range sums {
			sums[i] = make([]float64, sd)
		}
		for vi, v := range vectors {
			c := res.Assign[vi]
			counts[c]++
			for d := 0; d < sd; d++ {
				sums[c][d] += float64(v[off+d])
			}
		}
		for ci := range res.Centroids {
			if counts[ci] == 0 {
				copy(res.Centroids[ci], vectors[rng.Intn(n)][off:off+sd])
				continue
			}
			for d := 0; d < sd; d++ {
				res.Centroids[ci][d] = float32(sums[ci][d] / float64(counts[ci]))
			}
		}
	}
	return res, nil
}

// sqDist routes through the dispatched blocked kernel (SIMD where the CPU
// supports it, scalar otherwise — bitwise-identical either way); squared
// space is all Lloyd iterations ever compare in.
func sqDist(a, b []float32) float64 {
	return vecmath.SquaredL2(a, b)
}

// ETAssigner assigns vectors to their exact nearest centroid while fetching
// centroid data through the transformed bit-plane layout with early
// termination: the centroid set is stored like an ANSMET vector database
// and each assignment is an exact 1-NN scan with a running threshold.
type ETAssigner struct {
	elem      vecmath.ElemType
	layoutL   *bitplane.Layout
	data      []byte
	centroids [][]float32
	bounder   *bitplane.Bounder
	qbuf      []float32 // reusable quantized-query buffer
}

// NewETAssigner encodes the centroids into the simple heuristic ET layout.
// Centroid values are quantized to the element type (use Float32 for exact
// assignment against float data).
func NewETAssigner(centroids [][]float32, elem vecmath.ElemType) (*ETAssigner, error) {
	if len(centroids) == 0 {
		return nil, fmt.Errorf("kmeans: no centroids")
	}
	dim := len(centroids[0])
	l, err := bitplane.NewLayout(elem, dim, layout.SimpleHeuristicSchedule(elem))
	if err != nil {
		return nil, err
	}
	a := &ETAssigner{elem: elem, layoutL: l, centroids: centroids}
	a.data = make([]byte, len(centroids)*l.VectorBytes())
	var codes []uint32
	for i, c := range centroids {
		if len(c) != dim {
			return nil, fmt.Errorf("kmeans: ragged centroids")
		}
		q := make([]float32, dim)
		for d, x := range c {
			q[d] = elem.Quantize(x)
		}
		codes = elem.EncodeVector(q, codes[:0])
		l.Transform(codes, a.data[i*l.VectorBytes():(i+1)*l.VectorBytes()])
	}
	a.bounder = bitplane.NewBounder(l, vecmath.L2, 0)
	return a, nil
}

// Assign returns the nearest centroid of v (in the quantized space), plus
// the number of 64 B lines fetched; a full scan costs
// len(centroids)×LinesPerVector.
func (a *ETAssigner) Assign(v []float32) (best int, dist float64, lines int) {
	if cap(a.qbuf) < len(v) {
		a.qbuf = make([]float32, len(v))
	}
	q := a.qbuf[:len(v)]
	for d, x := range v {
		q[d] = a.elem.Quantize(x)
	}
	a.bounder.ResetQuery(q)
	best, dist = -1, math.Inf(1)
	vb, total := a.layoutL.VectorBytes(), a.layoutL.LinesPerVector()
	for ci := range a.centroids {
		a.bounder.Reset()
		lb, n := a.bounder.RunTo(a.data[ci*vb:(ci+1)*vb], dist, total)
		lines += n
		if n == total && lb <= dist {
			// Fully fetched: lb is the exact distance. Strictly-less keeps
			// the smallest index among ties (scan order).
			if lb < dist || best < 0 {
				best, dist = ci, lb
			}
		}
	}
	return best, dist, lines
}
