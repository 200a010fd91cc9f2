// Package ivf implements the inverted-file (IVF) cluster index, the
// representative cluster-based ANNS index of the paper (§2.1, Fig. 1).
// Vectors are clustered with Lloyd's k-means; a query scans the nprobe
// closest clusters, routing member comparisons through an engine.Engine
// with the same per-batch threshold snapshotting as HNSW.
package ivf

import (
	"fmt"
	"math"
	"sort"

	"ansmet/internal/engine"
	"ansmet/internal/hnsw"
	"ansmet/internal/kmeans"
	"ansmet/internal/vecmath"
)

// Config holds clustering parameters.
type Config struct {
	// NumClusters is the number of inverted lists (k-means centroids).
	NumClusters int
	// MaxIters bounds Lloyd iterations.
	MaxIters int
	// Seed drives centroid initialization.
	Seed uint64
}

// DefaultConfig uses sqrt(N) clusters at build time via Build's adjustment.
func DefaultConfig() Config { return Config{NumClusters: 0, MaxIters: 15, Seed: 1} }

// Index is a built IVF index.
type Index struct {
	metric    vecmath.Metric
	vectors   [][]float32
	centroids [][]float32
	lists     [][]uint32
}

// Build clusters the vectors. A zero NumClusters defaults to ~sqrt(N).
func Build(vectors [][]float32, metric vecmath.Metric, cfg Config) (*Index, error) {
	n := len(vectors)
	if n == 0 {
		return nil, fmt.Errorf("ivf: empty dataset")
	}
	k := cfg.NumClusters
	if k <= 0 {
		k = int(math.Sqrt(float64(n)))
		if k < 1 {
			k = 1
		}
	}
	if k > n {
		k = n
	}
	iters := cfg.MaxIters
	if iters <= 0 {
		iters = 15
	}
	km, err := kmeans.Run(vectors, kmeans.Config{K: k, MaxIters: iters, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	centroids, assign := km.Centroids, km.Assign

	lists := make([][]uint32, k)
	for i := range vectors {
		lists[assign[i]] = append(lists[assign[i]], uint32(i))
	}
	return &Index{metric: metric, vectors: vectors, centroids: centroids, lists: lists}, nil
}

// NumClusters returns the inverted-list count.
func (ix *Index) NumClusters() int { return len(ix.lists) }

// Centroids exposes the cluster centroids (read-only) — the hot vectors the
// paper replicates for IVF (§5.3).
func (ix *Index) Centroids() [][]float32 { return ix.centroids }

// SearchFiltered scans the nprobe closest clusters for the k nearest
// neighbors with beam width ef, recording per-cluster comparison batches
// into rec (nil records nothing). Centroid scoring is host-side work
// (centroids are small and cache resident), charged as HostOps in a
// tasks-free hop. Only ids passing the filter enter the result set (a nil
// filter accepts everything). The tombstone bitmap of a live database rides
// this path — deleted members stay in their lists until re-clustering but
// never reach results.
func (ix *Index) SearchFiltered(q []float32, k, ef, nprobe int, filter func(uint32) bool, eng engine.Engine, rec hnsw.Recorder) []hnsw.Neighbor {
	if ef < k {
		ef = k
	}
	if nprobe <= 0 {
		nprobe = 1
	}
	if nprobe > len(ix.lists) {
		nprobe = len(ix.lists)
	}
	eng.StartQuery(q)

	// Rank clusters by centroid distance (L2 geometry, host side).
	type cd struct {
		c int
		d float64
	}
	order := make([]cd, len(ix.centroids))
	for c, ctr := range ix.centroids {
		order[c] = cd{c, vecmath.L2.Distance(q, ctr)}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].d != order[j].d {
			return order[i].d < order[j].d
		}
		return order[i].c < order[j].c
	})
	if rec != nil {
		rec.BeginHop(-1)
		rec.EndHop(2 * len(ix.centroids))
	}

	results := &hnsw.Heap{Max: true}
	for p := 0; p < nprobe; p++ {
		members := ix.lists[order[p].c]
		if len(members) == 0 {
			continue
		}
		threshold := math.Inf(1)
		if results.Len() >= ef {
			threshold = results.Top().Dist
		}
		if rec != nil {
			rec.BeginHop(-1)
		}
		for _, id := range members {
			res := eng.Compare(id, threshold)
			if rec != nil {
				rec.AddTask(id, threshold, res)
			}
			if !res.Accepted || (filter != nil && !filter(id)) {
				continue
			}
			if n := (hnsw.Neighbor{ID: id, Dist: res.Dist}); results.Len() < ef {
				results.Push(n)
			} else if n.Less(results.Top()) {
				results.ReplaceTop(n)
			}
		}
		if rec != nil {
			rec.EndHop(1 + 2*len(members))
		}
	}

	out := results.Sorted(nil)
	if len(out) > k {
		out = out[:k]
	}
	return out
}
