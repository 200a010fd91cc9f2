// Package precision implements adaptive mixed-precision search over the
// bit-plane layout (ROADMAP item 4, ANNS-AMP-style). The layout stores
// vectors most-significant-bits-first, so "precision" is simply how many
// plane lines a query fetches before trusting the bound. This package
// supplies the two halves of making that depth dynamic:
//
//   - Map: a per-partition static decision derived offline from k-means
//     cluster radius statistics. Tight clusters need fewer planes — their
//     members share a coarse bit signature, so a shallow bound already
//     orders them against candidates from other clusters — while diffuse
//     clusters get deeper minimum schedules. The map is resolved to a
//     per-vector minimum fetch depth (in 64 B lines) honored by the
//     bounder fetch schedules in internal/bitplane and internal/prefixelim.
//
//   - Tuner: an online controller toward a recall target (the
//     experiments' adaptive tiered arm drives one per cell). It watches each tiered query's observed bound distribution (how much
//     of the final top-k landed inside the adaptive cut's risk window, and
//     how fat the stage-2 pool ran) and EWMA-calibrates — exactly like the
//     query router's cost model — the tiered cut budget and a depth bias
//     on top of the static map. All methods are allocation-free and safe
//     for concurrent use.
//
// Escalation (the per-query dynamic half) lives with the engines in
// internal/core: candidates whose bound lands within the margin window of
// the running threshold fetch deeper, up to the full vector, where the
// fully-fetched bound is the exact distance bitwise.
package precision

import (
	"fmt"
	"math"
	"sync/atomic"

	"ansmet/internal/bitplane"
	"ansmet/internal/kmeans"
	"ansmet/internal/stats"
)

// The offline derivation's constants; nothing has ever set them otherwise.
const (
	// maxClusters caps the k-means partition count, which is
	// min(maxClusters, max(1, n/vectorsPerCluster)).
	maxClusters       = 64
	vectorsPerCluster = 128
	// maxIters bounds the Lloyd iterations: the radius statistics converge
	// much faster than the assignment does.
	maxIters = 6
	// minBits floors the per-cluster precision. A median-radius cluster is
	// granted half the layout's suffix width (Build's baseBits).
	minBits = 2
)

// Map is the static half of adaptive precision: a per-vector minimum
// stage-1 fetch depth, resolved from per-partition radius statistics at
// build time and stored alongside the layout parameters. Immutable after
// Build and safe for concurrent use.
type Map struct {
	// Clusters is the fitted partition count.
	Clusters int
	// Radius is each partition's RMS member-to-centroid distance.
	Radius []float64
	// PartitionLines is each partition's minimum fetch depth in lines.
	PartitionLines []int

	lines      []uint16 // per-vector minimum depth (denormalized hot path)
	totalLines int      // layout.LinesPerVector()
	meanLines  float64
}

// Build fits k-means over the (quantized) vectors and derives the
// per-partition minimum plane depth from the cluster radius distribution:
// a cluster at the median radius gets half the suffix width of per-element
// precision, tighter clusters proportionally fewer bits (log2 of the radius
// ratio), diffuse clusters more, clamped to [minBits, SuffixBits]. seed
// drives the k-means initialization (deterministic rebuilds). Bits map to
// lines through the layout's group geometry (Layout.LinesForBits), and the
// per-vector depth is clamped to [1, LinesPerVector()−1] so the static
// schedule alone never fully fetches — full fetches stay the escalation
// path's decision.
func Build(vectors [][]float32, lay *bitplane.Layout, seed uint64) (*Map, error) {
	n := len(vectors)
	if n == 0 {
		return nil, fmt.Errorf("precision: empty dataset")
	}
	suffix := lay.SuffixBits()
	baseBits := (suffix + 1) / 2
	res, err := kmeans.Run(vectors, kmeans.Config{
		K: min(maxClusters, max(1, n/vectorsPerCluster)), MaxIters: maxIters, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	k := len(res.Centroids)

	// RMS member-to-centroid distance per cluster.
	radius := make([]float64, k)
	count := make([]int, k)
	for i, v := range vectors {
		c := res.Assign[i]
		var sum float64
		cv := res.Centroids[c]
		for d := range v {
			diff := float64(v[d]) - float64(cv[d])
			sum += diff * diff
		}
		radius[c] += sum
		count[c]++
	}
	for c := range radius {
		if count[c] > 0 {
			radius[c] = math.Sqrt(radius[c] / float64(count[c]))
		}
	}

	// Median of the non-empty cluster radii anchors the baseBits grant.
	med := medianPositive(radius)
	m := &Map{
		Clusters:       k,
		Radius:         radius,
		PartitionLines: make([]int, k),
		lines:          make([]uint16, n),
		totalLines:     lay.LinesPerVector(),
	}
	maxDepth := m.totalLines - 1
	if maxDepth < 1 {
		maxDepth = 1
	}
	for c := range radius {
		bits := baseBits
		if med > 0 && radius[c] > 0 {
			bits += int(math.Round(math.Log2(radius[c] / med)))
		}
		if bits < minBits {
			bits = minBits
		}
		if bits > suffix {
			bits = suffix
		}
		depth := lay.LinesForBits(bits)
		if depth < 1 {
			depth = 1
		}
		if depth > maxDepth {
			depth = maxDepth
		}
		m.PartitionLines[c] = depth
	}
	var total float64
	for i := range vectors {
		d := m.PartitionLines[res.Assign[i]]
		m.lines[i] = uint16(d)
		total += float64(d)
	}
	m.meanLines = total / float64(n)
	return m, nil
}

// medianPositive returns the median of the positive values of xs (0 when
// none are positive). k is small (≤ 64), so an insertion copy is fine.
func medianPositive(xs []float64) float64 {
	var pos []float64
	for _, x := range xs {
		if x > 0 {
			pos = append(pos, x)
		}
	}
	if len(pos) == 0 {
		return 0
	}
	for i := 1; i < len(pos); i++ {
		for j := i; j > 0 && pos[j] < pos[j-1]; j-- {
			pos[j], pos[j-1] = pos[j-1], pos[j]
		}
	}
	return pos[len(pos)/2]
}

// Lines returns vector id's minimum fetch depth in lines (≥ 1, never the
// full line count). The map covers every vector of the model it was derived
// for: a model never grows.
func (m *Map) Lines(id uint32) int { return int(m.lines[id]) }

// MeanLines reports the population mean of the per-vector minimum depth —
// the static schedule's expected stage-1 cost in lines.
func (m *Map) MeanLines() float64 { return m.meanLines }

// TotalLines reports the layout line count the map was built for.
func (m *Map) TotalLines() int { return m.totalLines }

// tuneStride is the observation count between controller adjustments: the
// EWMAs update every query, the knobs move only every stride-th one, which
// keeps single-query noise from thrashing the budget.
const tuneStride = 8

// maxDepthBias caps the tuner's additive depth correction in lines.
const maxDepthBias = 3

// Pool-per-k watermarks steering the depth bias: a stage-2 pool fatter
// than poolHighWater×k means the static bounds are too loose (fetch
// deeper); leaner than poolLowWater×k means depth is being wasted.
const (
	poolHighWater = 32.0
	poolLowWater  = 8.0
)

// Tuner auto-calibrates the tiered pipeline toward a recall target from
// the observed bound distribution. It EWMA-tracks two per-query signals —
// the fraction of the final top-k inside the adaptive cut's risk window
// (results a slightly looser bound would have cut) and the stage-2 pool
// size per requested k — and nudges the cut budget and the static map's
// depth bias against them. All methods are allocation-free and safe for
// concurrent use; adjustments are deterministic in the observation
// sequence (no clocks, no randomness), so single-threaded replays are
// byte-identical.
type Tuner struct {
	target float64

	budget atomic.Uint64 // math.Float64bits of the current cut budget
	bias   atomic.Int64  // depth bias in lines, [0, maxDepthBias]
	risk   stats.EWMA    // of atRisk/k
	pool   stats.EWMA    // of pool/k
	obs    atomic.Uint64 // observation count
}

// NewTuner builds a tuner for the given recall target, clamped to
// [0.5, 0.999]. The initial budget splits the difference between the
// target (its floor — the budget is itself a recall-style knob, so it
// never relaxes below the target) and 1.
func NewTuner(target float64) *Tuner {
	if target < 0.5 {
		target = 0.5
	}
	if target > 0.999 {
		target = 0.999
	}
	t := &Tuner{target: target}
	t.budget.Store(math.Float64bits((1 + target) / 2))
	return t
}

// Budget returns the current tiered cut budget in (0, 1].
func (t *Tuner) Budget() float64 { return math.Float64frombits(t.budget.Load()) }

// DepthBias returns the current additive depth correction in lines.
func (t *Tuner) DepthBias() int { return int(t.bias.Load()) }

// Margin returns the escalation margin for this target: candidates whose
// bound lands within margin·|threshold| below the running threshold fetch
// deeper instead of settling for the partial bound. Looser targets shrink
// the window (more partial accepts), tight targets widen it.
func (t *Tuner) Margin() float64 { return MarginForTarget(t.target) }

// MarginForTarget maps a recall target to the escalation margin,
// 4·(1−target) clamped to [0.02, 0.6].
func MarginForTarget(target float64) float64 {
	m := 4 * (1 - target)
	if m < 0.02 {
		m = 0.02
	}
	if m > 0.6 {
		m = 0.6
	}
	return m
}

// Observe folds one tiered query's outcome into the calibration: k is the
// requested result count, pool the stage-2 re-rank pool size, and atRisk
// how many of the returned top-k landed inside the adaptive cut's risk
// window (TieredStats.AtRisk).
func (t *Tuner) Observe(k, pool, atRisk int) {
	if k <= 0 {
		return
	}
	r := t.risk.Fold(float64(atRisk) / float64(k))
	p := t.pool.Fold(float64(pool) / float64(k))
	if t.obs.Add(1)%tuneStride != 0 {
		return
	}
	// Budget: the risk window holds the results the cut would shave first,
	// so its EWMA mass is a proxy for the recall the cut is gambling with.
	// Above the allowance (1−target): tighten hard toward exact. Well
	// under it: relax slowly. The asymmetry (fast up, slow down) is the
	// usual congestion-control shape — recall misses cost more than fetch
	// slack.
	allow := 1 - t.target
	b := t.Budget()
	switch {
	case r > allow:
		b += 0.5 * (1 - b)
	case r < 0.25*allow:
		b -= 0.02
	}
	if b < t.target {
		b = t.target
	}
	if b > 1 {
		b = 1
	}
	t.budget.Store(math.Float64bits(b))
	// Depth bias: a fat pool means the static depths bound too loosely —
	// spend more lines in stage 1 to shrink stage 2; a lean pool returns
	// the lines.
	bias := t.bias.Load()
	switch {
	case p > poolHighWater && bias < maxDepthBias:
		t.bias.Store(bias + 1)
	case p < poolLowWater && bias > 0:
		t.bias.Store(bias - 1)
	}
}
