// Package layout implements ANSMET's sampling-based data-layout optimizer
// (paper §4.2). From a small sample of the dataset (default 100 vectors) it
// derives:
//
//   - the ET threshold, taken as the 90th percentile of pairwise sample
//     distances ("the 10% largest distance", §4.2/§7.3, Fig. 11);
//   - the per-prefix-length entropy and early-termination frequency
//     distributions (Fig. 3);
//   - the common-prefix length under an outlier budget (with
//     internal/prefixelim);
//   - the dual-granularity fetch parameters (nc, Tc, nf) minimizing the
//     expected fetched bytes under the paper's ceiling cost model;
//   - the fetched-line distribution used by adaptive result polling (§5.4).
package layout

import (
	"fmt"
	"math"
	"sort"

	"ansmet/internal/bitplane"
	"ansmet/internal/prefixelim"
	"ansmet/internal/rows"
	"ansmet/internal/stats"
	"ansmet/internal/vecmath"
)

// Options configures the sampling analysis.
type Options struct {
	// ThresholdPercentile in (0,1]; the paper's default is 0.90.
	ThresholdPercentile float64
	// OutlierBudget is the allowed fraction of sample elements breaking the
	// common prefix; the paper's default is 0.001 (0.1%).
	OutlierBudget float64
}

// DefaultOptions returns the paper's defaults.
func DefaultOptions() Options {
	return Options{ThresholdPercentile: 0.90, OutlierBudget: 0.001}
}

// maxPairs caps the (query, vector) sample pairs used for termination
// positions, bounding analysis cost on wide vectors; pairSeed drives their
// subsampling.
const maxPairs, pairSeed = 1500, 1

// Sample draws the offline pass's sampling set from the slab: the first n
// ids of a permutation seeded by seed (every row if n exceeds the count),
// decoded to float32. Decoding is exact, so the values are the ones the rows
// were packed from.
func Sample(rs *rows.Slab, n int, seed uint64) [][]float32 {
	v := rs.View()
	perm := stats.NewRNG(seed).Perm(v.Len())
	sample := make([][]float32, min(n, v.Len()))
	for i := range sample {
		sample[i] = v.Decode(uint32(perm[i]), make([]float32, 0, rs.Dim()))
	}
	return sample
}

// Params is a complete optimized layout decision.
type Params struct {
	PrefixLen  int
	PrefixVal  uint32
	Nc, Tc, Nf int
	// Cost is the expected fetched bytes per comparison under the model.
	Cost float64
}

// Schedule materializes the dual-granularity schedule for an element type.
func (p Params) Schedule(elem vecmath.ElemType) bitplane.Schedule {
	return bitplane.DualSchedule(elem, p.PrefixLen, p.Nc, p.Tc, p.Nf)
}

func (p Params) String() string {
	return fmt.Sprintf("{P=%d val=%#x nc=%d Tc=%d nf=%d cost=%.1fB}",
		p.PrefixLen, p.PrefixVal, p.Nc, p.Tc, p.Nf, p.Cost)
}

// Analysis is the result of sampling a dataset.
type Analysis struct {
	Elem   vecmath.ElemType
	Dim    int
	Metric vecmath.Metric
	Opts   Options

	// Threshold is the ET threshold estimated from pairwise distances.
	Threshold float64
	// PrefixEntropy[l] is the Shannon entropy (nats) of the (l+1)-bit code
	// prefixes over all sampled elements, l in [0, Bits).
	PrefixEntropy []float64
	// ETFreq[l] is the fraction of sampled pairs whose bit-serial
	// termination position is exactly l+1 bits, l in [0, Bits); pairs that
	// never terminate are excluded (they appear in NoTermFrac).
	ETFreq []float64
	// NoTermFrac is the fraction of pairs that never exceed the threshold.
	NoTermFrac float64
	// PET holds the raw termination positions (in bits; Bits+1 encodes
	// "never") for every sampled pair.
	PET []int
	// CommonPrefixLen/Val come from the outlier-budgeted prefix vote.
	CommonPrefixLen int
	CommonPrefixVal uint32

	petCache []float64 // lazily built histogram over PET
}

// Analyze runs the full sampling pass over the sample vectors.
func Analyze(sample [][]float32, elem vecmath.ElemType, metric vecmath.Metric, opts Options) (*Analysis, error) {
	if len(sample) < 2 {
		return nil, fmt.Errorf("layout: need at least 2 sample vectors, got %d", len(sample))
	}
	dim := len(sample[0])
	if dim <= 0 {
		// bitplane.NewLayout's check, made early: with no layout to cost,
		// OptimizeDual settles on a zero step and DualSchedule never returns.
		return nil, fmt.Errorf("layout: non-positive dimension %d", dim)
	}
	a := &Analysis{Elem: elem, Dim: dim, Metric: metric, Opts: opts}
	w := elem.Bits()

	codes := make([][]uint32, len(sample))
	for i, v := range sample {
		if len(v) != dim {
			return nil, fmt.Errorf("layout: ragged sample (vector %d has dim %d, want %d)", i, len(v), dim)
		}
		codes[i] = elem.EncodeVector(v, nil)
	}

	// Threshold from the pairwise distance distribution.
	var dists []float64
	for i := range sample {
		for j := i + 1; j < len(sample); j++ {
			dists = append(dists, metric.Distance(sample[i], sample[j]))
		}
	}
	a.Threshold = stats.Percentile(dists, opts.ThresholdPercentile)

	// Prefix entropy per length.
	a.PrefixEntropy = make([]float64, w)
	for l := 1; l <= w; l++ {
		counts := make(map[uint32]float64)
		for _, cs := range codes {
			for _, c := range cs {
				counts[c>>uint(w-l)]++
			}
		}
		weights := make([]float64, 0, len(counts))
		for _, n := range counts {
			weights = append(weights, n)
		}
		// Summed in sorted order, not map order: the same sample gives
		// the same bits on every run.
		sort.Float64s(weights)
		a.PrefixEntropy[l-1] = stats.Entropy(weights)
	}

	// Termination positions over sampled (query, vector) pairs.
	rng := stats.NewRNG(pairSeed)
	type pair struct{ q, v int }
	var pairs []pair
	total := len(sample) * (len(sample) - 1)
	if total <= maxPairs {
		for i := range sample {
			for j := range sample {
				if i != j {
					pairs = append(pairs, pair{i, j})
				}
			}
		}
	} else {
		for len(pairs) < maxPairs {
			i, j := rng.Intn(len(sample)), rng.Intn(len(sample))
			if i != j {
				pairs = append(pairs, pair{i, j})
			}
		}
	}
	a.ETFreq = make([]float64, w)
	never := 0
	for _, p := range pairs {
		pos := TerminationPosition(elem, metric, a.Threshold, sample[p.q], codes[p.v])
		a.PET = append(a.PET, pos)
		if pos > w {
			never++
		} else if pos >= 1 {
			a.ETFreq[pos-1]++
		}
	}
	n := float64(len(pairs))
	for i := range a.ETFreq {
		a.ETFreq[i] /= n
	}
	a.NoTermFrac = float64(never) / n

	// Common prefix vote.
	a.CommonPrefixLen, a.CommonPrefixVal = prefixelim.Analyze(elem, dim, codes, opts.OutlierBudget)
	return a, nil
}

// TerminationPosition returns the smallest bit-serial prefix length l (in
// [1, Bits]) at which the distance lower bound of vCodes against query q
// exceeds the threshold, or Bits+1 if the full vector never exceeds it.
// This is the pET of §4.2, with bits revealed uniformly across dimensions.
// The bound is monotone in l, so the crossing is found by binary search;
// pairs that never terminate cost a single full-precision evaluation.
func TerminationPosition(elem vecmath.ElemType, metric vecmath.Metric, threshold float64, q []float32, vCodes []uint32) int {
	w := elem.Bits()
	lbAt := func(l int) float64 {
		var sum float64
		for d, c := range vCodes {
			lo, hi := elem.Interval(c>>uint(w-l), l)
			qd := float64(q[d])
			switch metric {
			case vecmath.L2:
				sum += vecmath.L2IntervalContrib(qd, lo, hi)
			default:
				sum += vecmath.IPIntervalUpper(qd, lo, hi)
			}
		}
		if metric == vecmath.L2 {
			return math.Sqrt(sum)
		}
		return -sum
	}
	if lbAt(w) <= threshold {
		return w + 1
	}
	lo, hi := 1, w // invariant: lbAt(hi) > threshold
	for lo < hi {
		mid := (lo + hi) / 2
		if lbAt(mid) > threshold {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// petHist returns (caching) the histogram of termination positions:
// index b holds the count of pairs with pET == b+1, and the final bin the
// never-terminating pairs. The exhaustive (nc, Tc, nf) search evaluates its
// cost model over this histogram instead of the raw pair list.
func (a *Analysis) petHist() []float64 {
	if a.petCache != nil {
		return a.petCache
	}
	w := a.Elem.Bits()
	h := make([]float64, w+1)
	for _, pet := range a.PET {
		if pet > w {
			h[w]++
		} else {
			h[pet-1]++
		}
	}
	a.petCache = h
	return h
}

// linesAt is the number of lines a pair terminating at bit position pet
// fetches under layout l, whose schedule keeps prefix bits on chip: every
// line if it never terminates (pet > w); one if the prefix alone terminates
// — the unit still issues the first line before it can conclude anything
// about the vector's suffix; otherwise the whole line groups covering the
// pet − prefix post-prefix bits (Layout.LinesForBits).
func linesAt(l *bitplane.Layout, w, prefix, pet int) int {
	if pet > w {
		return l.LinesPerVector()
	}
	if need := pet - prefix; need > 0 {
		return l.LinesForBits(need)
	}
	return 1
}

// costOf evaluates the expected fetched bytes of a schedule against the
// sampled termination positions, each pair charged linesAt lines. This
// realizes the paper's ceiling-function access-cost model.
func (a *Analysis) costOf(sched bitplane.Schedule) float64 {
	l, err := bitplane.NewLayout(a.Elem, a.Dim, sched)
	if err != nil {
		return math.Inf(1)
	}
	w := a.Elem.Bits()
	sum, count := 0.0, 0.0
	for b, cnt := range a.petHist() {
		if cnt == 0 {
			continue
		}
		count += cnt
		sum += cnt * float64(linesAt(l, w, sched.Prefix, b+1))
	}
	return sum / count * bitplane.LineBytes
}

// OptimizeDual exhaustively searches (nc, Tc, nf) for the given prefix
// length, returning the parameters with minimal expected fetched bytes.
func (a *Analysis) OptimizeDual(prefixLen int) Params {
	w := a.Elem.Bits()
	rem := w - prefixLen
	best := Params{PrefixLen: prefixLen, Cost: math.Inf(1)}
	if prefixLen > 0 {
		best.PrefixVal = a.CommonPrefixVal
	}
	for nc := 1; nc <= rem; nc++ {
		maxTc := (rem + nc - 1) / nc
		for tc := 0; tc <= maxTc; tc++ {
			for nf := 1; nf <= nc; nf++ {
				if tc == 0 && nf != nc {
					continue // without coarse steps only nf matters; dedupe
				}
				sched := bitplane.DualSchedule(a.Elem, prefixLen, nc, tc, nf)
				cost := a.costOf(sched)
				if cost < best.Cost {
					best.Nc, best.Tc, best.Nf, best.Cost = nc, tc, nf, cost
				}
			}
		}
	}
	return best
}

// BestParams returns the optimized layout decision. usePrefix selects
// whether common-prefix elimination is applied (NDP-ETOpt) or not
// (NDP-ET+Dual).
func (a *Analysis) BestParams(usePrefix bool) Params {
	if usePrefix && a.CommonPrefixLen > 0 {
		return a.OptimizeDual(a.CommonPrefixLen)
	}
	p := a.OptimizeDual(0)
	p.PrefixVal = 0
	return p
}

// LineDistribution predicts the distribution of fetched lines per
// comparison under a schedule: index i holds the probability of fetching
// exactly i+1 lines (linesAt, the cost model's rule). The adaptive polling
// model (§5.4) consumes this.
func (a *Analysis) LineDistribution(sched bitplane.Schedule) []float64 {
	l := bitplane.MustLayout(a.Elem, a.Dim, sched)
	dist := make([]float64, l.LinesPerVector())
	w := a.Elem.Bits()
	for _, pet := range a.PET {
		dist[linesAt(l, w, sched.Prefix, pet)-1]++
	}
	for i := range dist {
		dist[i] /= float64(len(a.PET))
	}
	return dist
}

// SimpleHeuristicSchedule is the NDP-ET baseline layout (§6): 4-bit chunks
// for integer types, 8-bit chunks for floats, no sampling required.
func SimpleHeuristicSchedule(elem vecmath.ElemType) bitplane.Schedule {
	switch elem {
	case vecmath.Uint8, vecmath.Int8:
		return bitplane.UniformSchedule(elem, 0, 4)
	default:
		return bitplane.UniformSchedule(elem, 0, 8)
	}
}
