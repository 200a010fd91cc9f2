// Package dataset provides seeded synthetic vector datasets whose profiles
// (element type, dimension, metric, and value distribution) match the
// billion-scale public benchmarks of the paper's Table 2, scaled to
// laptop-size populations. The generators are parameterized so that the
// bit-prefix statistics driving early termination — a low-entropy common
// prefix followed by a high-entropy range (Fig. 3) — resemble each real
// dataset's structure, which is what the ET results depend on (see
// DESIGN.md, substitutions table).
package dataset

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"ansmet/internal/rows"
	"ansmet/internal/stats"
	"ansmet/internal/vecmath"
)

// Profile describes a dataset family.
type Profile struct {
	Name   string
	Metric vecmath.Metric
	Elem   vecmath.ElemType
	Dim    int

	// PaperVectors documents the population of the original benchmark.
	PaperVectors string

	// Value-distribution parameters. Vectors are drawn from a Gaussian
	// mixture: per-cluster centers uniform in [CenterLo, CenterHi] per
	// dimension, plus N(0, NoiseStd) noise, clamped to [ClampLo, ClampHi].
	// With probability OutlierRate an element is redrawn uniformly from the
	// clamp range, producing the rare prefix-breaking outliers that the
	// outlier-aware prefix elimination handles.
	Clusters           int
	CenterLo, CenterHi float64
	NoiseStd           float64
	ClampLo, ClampHi   float64
	OutlierRate        float64
	NormalizeVectors   bool // pre-normalization (cosine-style preprocessing)

	// ScaleJitter is the sigma of a per-vector lognormal factor applied to
	// the noise. Without it, iid high-dimensional noise makes all pairwise
	// distances concentrate around one value (concentration of measure),
	// which real feature datasets do not exhibit; the jitter restores the
	// distance spread that early-termination behaviour depends on.
	ScaleJitter float64
}

// Profiles mirrors the paper's Table 2, in the same order.
var Profiles = []Profile{
	{Name: "SIFT", Metric: vecmath.L2, Elem: vecmath.Uint8, Dim: 128, PaperVectors: "1M",
		Clusters: 32, CenterLo: 0, CenterHi: 60, NoiseStd: 14, ClampLo: 0, ClampHi: 130,
		OutlierRate: 0.002, ScaleJitter: 0.35},
	{Name: "BigANN", Metric: vecmath.L2, Elem: vecmath.Uint8, Dim: 128, PaperVectors: "1B",
		Clusters: 48, CenterLo: 0, CenterHi: 70, NoiseStd: 16, ClampLo: 0, ClampHi: 160,
		OutlierRate: 0.002, ScaleJitter: 0.35},
	{Name: "SPACEV", Metric: vecmath.L2, Elem: vecmath.Int8, Dim: 100, PaperVectors: "1B",
		Clusters: 32, CenterLo: 12, CenterHi: 26, NoiseStd: 2.2, ClampLo: -30, ClampHi: 31,
		OutlierRate: 0.0006, ScaleJitter: 0.15},
	{Name: "DEEP", Metric: vecmath.L2, Elem: vecmath.Float32, Dim: 96, PaperVectors: "1B",
		Clusters: 32, CenterLo: 0.06, CenterHi: 0.30, NoiseStd: 0.05, ClampLo: 0.01, ClampHi: 0.49,
		OutlierRate: 0.001, ScaleJitter: 0.7},
	{Name: "GloVe", Metric: vecmath.InnerProduct, Elem: vecmath.Float32, Dim: 100, PaperVectors: "1.2M",
		Clusters: 32, CenterLo: -0.6, CenterHi: 0.6, NoiseStd: 0.25, ClampLo: -2.5, ClampHi: 2.5,
		OutlierRate: 0.001, ScaleJitter: 0.3},
	{Name: "Txt2Img", Metric: vecmath.InnerProduct, Elem: vecmath.Float32, Dim: 200, PaperVectors: "1B",
		Clusters: 48, CenterLo: -0.25, CenterHi: 0.25, NoiseStd: 0.10, ClampLo: -1, ClampHi: 1,
		OutlierRate: 0.001, ScaleJitter: 0.3, NormalizeVectors: true},
	{Name: "GIST", Metric: vecmath.L2, Elem: vecmath.Float32, Dim: 960, PaperVectors: "1M",
		Clusters: 24, CenterLo: 0.05, CenterHi: 0.22, NoiseStd: 0.035, ClampLo: 0.01, ClampHi: 0.40,
		OutlierRate: 0.0005, ScaleJitter: 1.0},
}

// ParseProfile maps a profile name to its profile. The error of an unknown
// name lists the known ones.
func ParseProfile(name string) (Profile, error) {
	for _, p := range Profiles {
		if p.Name == name {
			return p, nil
		}
	}
	names := make([]string, len(Profiles))
	for i, p := range Profiles {
		names[i] = p.Name
	}
	return Profile{}, fmt.Errorf("dataset: unknown profile %q (want one of %s)", name, strings.Join(names, ", "))
}

// ProfileByName is ParseProfile for names fixed in code: it panics on an
// unknown one to keep experiment configuration errors loud.
func ProfileByName(name string) Profile {
	p, err := ParseProfile(name)
	if err != nil {
		panic(err.Error())
	}
	return p
}

// Dataset is a generated vector population plus a query set.
type Dataset struct {
	Profile Profile
	Vectors [][]float32
	Queries [][]float32
}

// Generate draws n database vectors and nq queries from the profile's
// distribution, all exactly representable in the profile's element type.
// Queries come from the same mixture (so they are near some database
// vectors, as the paper assumes when picking ET thresholds).
func Generate(p Profile, n, nq int, seed uint64) *Dataset {
	rng := stats.NewRNG(seed)
	centers := make([][]float64, p.Clusters)
	for c := range centers {
		ctr := make([]float64, p.Dim)
		for d := range ctr {
			ctr[d] = p.CenterLo + rng.Float64()*(p.CenterHi-p.CenterLo)
		}
		centers[c] = ctr
	}
	draw := func(r *stats.RNG) []float32 {
		ctr := centers[r.Intn(len(centers))]
		scale := 1.0
		if p.ScaleJitter > 0 {
			scale = math.Exp(r.NormFloat64() * p.ScaleJitter)
		}
		v := make([]float32, p.Dim)
		for d := range v {
			x := ctr[d] + r.NormFloat64()*p.NoiseStd*scale
			if p.OutlierRate > 0 && r.Float64() < p.OutlierRate {
				x = p.ClampLo + r.Float64()*(p.ClampHi-p.ClampLo)
			}
			if x < p.ClampLo {
				x = p.ClampLo
			}
			if x > p.ClampHi {
				x = p.ClampHi
			}
			v[d] = p.Elem.Quantize(float32(x))
		}
		if p.NormalizeVectors {
			vecmath.Normalize(v)
			for d := range v {
				v[d] = p.Elem.Quantize(v[d])
			}
		}
		return v
	}
	ds := &Dataset{Profile: p}
	vr := rng.Fork()
	for i := 0; i < n; i++ {
		ds.Vectors = append(ds.Vectors, draw(vr))
	}
	qr := rng.Fork()
	for i := 0; i < nq; i++ {
		ds.Queries = append(ds.Queries, draw(qr))
	}
	return ds
}

// Rows packs the database vectors into a row slab of the profile's element
// type — what the indexes and systems are built over. Every call packs a
// fresh slab; builders that must share one (an index and the system around
// it, when anything will be appended) take it once.
func (ds *Dataset) Rows() *rows.Slab { return rows.MustPack(ds.Vectors, ds.Profile.Elem) }

// Neighbor is one (id, distance) search result.
type Neighbor struct {
	ID   uint32
	Dist float64
}

// BruteForceKNN returns the exact k nearest vectors to q, sorted by
// ascending distance (ties broken by id for determinism).
func (ds *Dataset) BruteForceKNN(q []float32, k int) []Neighbor {
	res := make([]Neighbor, 0, len(ds.Vectors))
	for i, v := range ds.Vectors {
		res = append(res, Neighbor{ID: uint32(i), Dist: ds.Profile.Metric.Distance(q, v)})
	}
	sort.Slice(res, func(i, j int) bool {
		if res[i].Dist != res[j].Dist {
			return res[i].Dist < res[j].Dist
		}
		return res[i].ID < res[j].ID
	})
	if k > len(res) {
		k = len(res)
	}
	return res[:k]
}

// GroundTruth computes the exact top-k ids for every query.
func (ds *Dataset) GroundTruth(k int) [][]uint32 {
	out := make([][]uint32, len(ds.Queries))
	for i, q := range ds.Queries {
		nn := ds.BruteForceKNN(q, k)
		ids := make([]uint32, len(nn))
		for j, n := range nn {
			ids[j] = n.ID
		}
		out[i] = ids
	}
	return out
}

// RecallAtK returns |got ∩ truth| / |truth| — the recall@k definition used
// throughout the paper's evaluation (Fig. 8).
func RecallAtK(got, truth []uint32) float64 {
	if len(truth) == 0 {
		return 1
	}
	set := make(map[uint32]bool, len(truth))
	for _, id := range truth {
		set[id] = true
	}
	hit := 0
	for _, id := range got {
		if set[id] {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}

// ZipfQueryStream returns nq query indices drawn from a Zipf distribution
// over the query set — the skewed workload of §5.3's load-balance study.
func ZipfQueryStream(rng *stats.RNG, alpha float64, nQueries, n int) []int {
	z := stats.NewZipf(rng, alpha, nQueries)
	out := make([]int, n)
	for i := range out {
		out[i] = z.Next()
	}
	return out
}
