// Package stats provides small statistical utilities shared across the
// ANSMET reproduction: deterministic pseudo-random number generation,
// percentiles, histograms, KL divergence, mean helpers, the one lock-free
// EWMA, and the one circuit breaker (Breakers, for cluster shards).
//
// Everything here is dependency-free and deterministic so that experiments
// are exactly reproducible from a seed; a breaker is as deterministic as
// the clock its owner gives it.
package stats

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** variant). It is intentionally independent of math/rand so
// that results are stable across Go releases.
type RNG struct {
	s [4]uint64
}

// Mix64 is the splitmix64 finalizer: a bijective avalanche of x, so nearby
// inputs (a counter, a seed plus an id) come out as unrelated 64-bit values.
// Every hash-derived decision in the repository goes through it.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewRNG returns a generator seeded from seed using splitmix64 expansion.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		r.s[i] = Mix64(x)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate (Box-Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Fork derives an independent generator; useful to give each subsystem its
// own stream while keeping the whole experiment reproducible.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64())
}

// Zipf samples from a Zipf distribution over [0, n) with exponent alpha > 0
// using inverse-CDF over precomputed weights. Build once, sample many.
type Zipf struct {
	cdf []float64
	rng *RNG
}

// NewZipf constructs a Zipf sampler over n items with the given exponent.
func NewZipf(rng *RNG, alpha float64, n int) *Zipf {
	if n <= 0 {
		panic("stats: Zipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, rng: rng}
}

// Next returns the next sample in [0, n).
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// Percentile returns the p-quantile (0 <= p <= 1) of xs using linear
// interpolation between closest ranks. xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Mean returns the arithmetic mean of xs, NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of strictly positive xs.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// KLDivergence computes D_KL(p || q) over two discrete distributions given
// as (possibly unnormalized) non-negative weight vectors of equal length.
// Bins where p is zero contribute nothing. Bins where p > 0 but q == 0 are
// smoothed with a tiny epsilon so the divergence stays finite, mirroring the
// practical treatment in the paper's sampling-quality study (Fig. 11).
func KLDivergence(p, q []float64) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("stats: KLDivergence length mismatch %d vs %d", len(p), len(q)))
	}
	const eps = 1e-12
	ps, qs := 0.0, 0.0
	for i := range p {
		ps += p[i]
		qs += q[i]
	}
	if ps == 0 || qs == 0 {
		return math.NaN()
	}
	d := 0.0
	for i := range p {
		pi := p[i] / ps
		if pi == 0 {
			continue
		}
		qi := q[i] / qs
		if qi < eps {
			qi = eps
		}
		d += pi * math.Log(pi/qi)
	}
	return d
}

// Entropy computes the Shannon entropy (nats) of a discrete distribution
// given as non-negative weights; zero weights contribute nothing.
func Entropy(weights []float64) float64 {
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	if sum == 0 {
		return 0
	}
	e := 0.0
	for _, w := range weights {
		if w == 0 {
			continue
		}
		p := w / sum
		e -= p * math.Log(p)
	}
	return e
}

// ewmaAlpha is the smoothing factor the query router's cost model and the
// recall-target tuner's signals were both tuned at.
const ewmaAlpha = 0.2

// EWMA is a lock-free exponentially weighted moving average held as float
// bits in one atomic word. The zero value is unseeded: the first sample
// seeds it directly, later ones fold in at α. A value that folds to exactly
// 0.0 has the unseeded bit pattern and is re-seeded by the next sample: the
// tuner's calibrated budgets depend on that, and the router, which needs 0
// to mean "no observation", keeps its samples positive. Safe for concurrent
// use; allocation-free.
type EWMA struct{ bits atomic.Uint64 }

// Fold folds x into the average and returns the new value.
func (e *EWMA) Fold(x float64) float64 {
	for {
		old := e.bits.Load()
		nw := x
		if old != 0 {
			nw = (1-ewmaAlpha)*math.Float64frombits(old) + ewmaAlpha*x
		}
		if e.bits.CompareAndSwap(old, math.Float64bits(nw)) {
			return nw
		}
	}
}

// Value returns the current average (0 when unseeded).
func (e *EWMA) Value() float64 { return math.Float64frombits(e.bits.Load()) }
