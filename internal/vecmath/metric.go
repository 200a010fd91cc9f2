package vecmath

import (
	"fmt"
	"math"
)

// Metric enumerates the distance definitions supported by ANSMET (§2.1).
// Smaller distance always means "closer": the inner-product distance is the
// negated inner product, and cosine is handled as inner product after the
// offline normalization the paper describes.
type Metric int

const (
	// L2 is the Euclidean distance sqrt(sum((a_i-b_i)^2)).
	L2 Metric = iota
	// InnerProduct is the distance -sum(a_i*b_i).
	InnerProduct
	// Cosine is inner-product distance over pre-normalized vectors. Callers
	// must Normalize their data and queries during preprocessing; at runtime
	// it behaves exactly like InnerProduct (paper §2.1).
	Cosine
)

var metricNames = [...]string{"L2", "IP", "cosine"}

// String returns the conventional short name of the metric.
func (m Metric) String() string {
	if m < 0 || int(m) >= len(metricNames) {
		return fmt.Sprintf("Metric(%d)", int(m))
	}
	return metricNames[m]
}

// Distance computes the full distance between two equal-length vectors
// using the unrolled blocked kernels (kernels.go). The summation order is
// the canonical blocked reduction, so Distance is bitwise consistent with
// every other hot-path accumulation (in particular the fully-fetched
// bitplane.Bounder bound).
func (m Metric) Distance(a, b []float32) float64 {
	switch m {
	case L2:
		return math.Sqrt(SquaredL2(a, b))
	case InnerProduct, Cosine:
		return -Dot(a, b)
	default:
		panic("vecmath: unknown Metric")
	}
}

// Normalize scales v in place to unit Euclidean norm; zero vectors are left
// unchanged. Used during preprocessing for the Cosine metric.
func Normalize(v []float32) {
	s := 0.0
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	if s == 0 {
		return
	}
	inv := float32(1 / math.Sqrt(s))
	for i := range v {
		v[i] *= inv
	}
}

// L2IntervalContrib returns the minimal possible squared difference between
// the query coordinate q and any value in [lo, hi] — the per-dimension
// contribution to a Euclidean distance lower bound. This realizes the
// paper's missing-bit completion rule for L2 (§4.1): if q lies inside the
// interval the missing bits can be set to match q exactly (contribution 0);
// otherwise the closest endpoint is the conservative completion.
func L2IntervalContrib(q, lo, hi float64) float64 {
	if q < lo {
		d := lo - q
		return d * d
	}
	if q > hi {
		d := q - hi
		return d * d
	}
	return 0
}

// IPIntervalUpper returns the maximal possible value of q*x for x in
// [lo, hi] — the per-dimension contribution to an inner-product upper bound
// (whose negation lower-bounds the IP distance). This realizes the paper's
// completion rule for IP: pick the endpoint that inflates the product.
// A zero query coordinate contributes nothing regardless of interval, which
// also guards against Inf*0 when the interval is unbounded.
func IPIntervalUpper(q, lo, hi float64) float64 {
	if q == 0 {
		return 0
	}
	a, b := q*lo, q*hi
	if a > b {
		return a
	}
	return b
}
