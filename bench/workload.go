package main

import (
	"encoding/json"
	"fmt"
	"sync"

	"ansmet"
	"ansmet/internal/dataset"
	"ansmet/internal/serve"
	"ansmet/internal/stats"
)

const (
	topK           = 10
	efConstruction = 100
	// writesPerSecond is the paced writer's open-loop rate on the mixed
	// workload; the write count is writesPerSecond × measured seconds, so
	// the graph after the window is the same on every run of a seed.
	writesPerSecond = 100
	// deleteEvery makes every fifth write a delete, the rest inserts.
	deleteEvery = 5
	// dataParts is how many independently seeded draws of the profile make
	// up one population and its queries. One draw places 24 to 32 cluster
	// centres at random, and how hard that one geometry is decides how many
	// compares a query costs: with four draws gist's search_p50_ms still
	// spread by 12 % between ten seeds and its recall by 2.8 %, with eight by
	// 6.7 % and 1.1 %. Every vector still comes from the seed.
	dataParts    = 8
	dataPartBits = 3
)

// spec is one workload: which data, which route, which traffic.
type spec struct {
	name    string
	profile string
	n, nq   int
	// timed is how many of the nq distinct queries the measured seconds
	// cycle over (the first timed of them): few enough that each repeats
	// often enough for a floor. The fixed pass, and so recall, takes all nq.
	timed int
	ef    int
	// tiered sends {"recall_target":1}: the bound-scan + exact re-rank
	// route, whose answers must equal brute force.
	tiered bool
	// mixed builds the index Mutable and runs the paced writer beside one
	// search connection.
	mixed bool
	// recallFloor fails the run when the fixed pass's recall@10 is below it.
	recallFloor float64
}

// workloads is the benchmark's fixed set; BENCHMARK.json names the same
// four and says why each exists. Sizes are what the set-ups plus the
// measured seconds fit into the driver's time cap (README.md, "Sizes").
var workloads = []spec{
	{name: "sift20k_beam", profile: "SIFT", n: 20000, nq: 400, timed: 400, ef: 128, recallFloor: 0.85},
	{name: "gist3k_beam", profile: "GIST", n: 3000, nq: 120, timed: 48, ef: 64, recallFloor: 0.85},
	{name: "glove10k_tiered", profile: "GloVe", n: 10000, nq: 60, timed: 60, tiered: true, recallFloor: 1},
	{name: "sift10k_mixed", profile: "SIFT", n: 10000, nq: 400, timed: 200, ef: 128, mixed: true, recallFloor: 0.85},
}

func findSpec(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// scaled shrinks a workload by div for the smoke test.
func (s spec) scaled(div int) spec {
	s.n /= div
	s.nq = max(s.nq/div, 10)
	s.timed = max(s.timed/div, 10)
	return s
}

// data is everything generated from the seed: vectors, queries, the write
// stream, the pre-encoded request bodies and the brute-force truth.
type data struct {
	spec    spec
	seed    uint64
	prof    dataset.Profile
	base    [][]float32
	inserts [][]float32 // fresh vectors for the mixed writer, in send order
	queries [][]float32
	// delOrder is the seeded permutation of base ids the writer deletes from.
	delOrder []uint32
	bodies   [][]byte   // /v1/search bodies, one per query
	truth    [][]uint32 // brute-force top-k over base, one per query
}

// generate derives every input from the seed. writes is the mixed writer's
// write count (0 for read-only workloads).
func generate(s spec, seed uint64, writes int) (*data, error) {
	p := dataset.ProfileByName(s.profile)
	nIns := 0
	if s.mixed {
		nIns = writes - writes/deleteEvery
	}
	d := &data{spec: s, seed: seed, prof: p}
	queries := make([][][]float32, dataParts)
	for part := 0; part < dataParts; part++ {
		share := func(total int) int { return total*(part+1)/dataParts - total*part/dataParts }
		// The draw's tail is the part's share of the writer's fresh vectors.
		ds := dataset.Generate(p, share(s.n)+share(nIns), share(s.nq), seed<<dataPartBits|uint64(part))
		d.base = append(d.base, ds.Vectors[:share(s.n)]...)
		d.inserts = append(d.inserts, ds.Vectors[share(s.n):]...)
		queries[part] = ds.Queries
	}
	// Queries alternate between the parts, so every window sees them all.
	for i := 0; len(d.queries) < s.nq; i++ {
		for _, qs := range queries {
			if i < len(qs) {
				d.queries = append(d.queries, qs[i])
			}
		}
	}
	if s.mixed {
		rng := stats.NewRNG(seed ^ 0x9e3779b97f4a7c15)
		d.delOrder = make([]uint32, s.n)
		for i := range d.delOrder {
			d.delOrder[i] = uint32(i)
		}
		for i := len(d.delOrder) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			d.delOrder[i], d.delOrder[j] = d.delOrder[j], d.delOrder[i]
		}
	}
	for _, q := range d.queries {
		req := serve.SearchRequest{Query: q, K: topK, Ef: s.ef}
		if s.tiered {
			req.RecallTarget = 1
		}
		b, err := json.Marshal(req)
		if err != nil {
			return nil, fmt.Errorf("encoding search body: %w", err)
		}
		d.bodies = append(d.bodies, b)
	}
	d.truth = bruteForce(p, d.queries, d.base, nil)
	return d, nil
}

// options are the build options every workload shares.
func (d *data) options() ansmet.Options {
	return ansmet.Options{
		Metric: d.prof.Metric, Elem: d.prof.Elem,
		EfConstruction: efConstruction, Seed: d.seed, Mutable: d.spec.mixed,
	}
}

// rawVectorBytes is the user data behind nvec stored vectors.
func (d *data) rawVectorBytes(nvec int) int {
	return nvec * d.prof.Dim * d.prof.Elem.Bytes()
}

// bruteForce returns the exact top-k ids of every query over vectors,
// skipping ids for which dead reports true (nil: none). Ties break by id,
// the order the server's exact paths use.
func bruteForce(p dataset.Profile, queries, vectors [][]float32, dead func(uint32) bool) [][]uint32 {
	out := make([][]uint32, len(queries))
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var best []dataset.Neighbor
			for qi := w; qi < len(queries); qi += workers {
				best = bruteForceOne(p, queries[qi], vectors, dead, best[:0])
				ids := make([]uint32, len(best))
				for i, nb := range best {
					ids[i] = nb.ID
				}
				out[qi] = ids
			}
		}(w)
	}
	wg.Wait()
	return out
}

func bruteForceOne(p dataset.Profile, q []float32, vectors [][]float32, dead func(uint32) bool, best []dataset.Neighbor) []dataset.Neighbor {
	for id, v := range vectors {
		if dead != nil && dead(uint32(id)) {
			continue
		}
		dist := p.Metric.Distance(q, v)
		if len(best) == topK && dist >= best[topK-1].Dist {
			continue
		}
		pos := len(best)
		for pos > 0 && best[pos-1].Dist > dist {
			pos--
		}
		if len(best) < topK {
			best = append(best, dataset.Neighbor{})
		}
		copy(best[pos+1:], best[pos:])
		best[pos] = dataset.Neighbor{ID: uint32(id), Dist: dist}
	}
	return best
}

// recallOf is the mean recall@k of got against truth over all queries.
func recallOf(got, truth [][]uint32) float64 {
	total := 0.0
	for i := range truth {
		total += dataset.RecallAtK(got[i], truth[i])
	}
	return total / float64(len(truth))
}
