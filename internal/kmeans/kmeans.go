// Package kmeans provides Lloyd's k-means clustering over float32 vectors
// (or slices of their dimensions), shared by the IVF index and the product
// quantizer.
package kmeans

import (
	"fmt"
	"math"

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
