// Semantic search: the retrieval-augmented-generation scenario from the
// paper's introduction. Documents are embedded as dense vectors (here: a
// toy bag-of-words hashing embedder, standing in for a neural encoder),
// normalized for cosine similarity, and indexed with ANSMET. A query
// sentence retrieves the most similar documents; the report shows how much
// data movement early termination avoided while computing exactly the same
// answer.
package main

import (
	"fmt"
	"log"
	"strings"

	"ansmet"
	"ansmet/internal/core"
	"ansmet/internal/sim"
)

// embed maps text to a dense vector with hashed bag-of-words features —
// a stand-in for a sentence-embedding model.
func embed(text string, dim int) []float32 {
	v := make([]float32, dim)
	for _, word := range strings.Fields(strings.ToLower(text)) {
		h := uint32(2166136261)
		for i := 0; i < len(word); i++ {
			h = (h ^ uint32(word[i])) * 16777619
		}
		// Spread each word over a few dimensions with signs.
		for j := 0; j < 4; j++ {
			idx := int(h>>uint(8*j)) % dim
			sign := float32(1)
			if h>>uint(8*j+7)&1 == 1 {
				sign = -1
			}
			v[idx] += sign
		}
	}
	ansmet.Normalize(v)
	return v
}

func main() {
	docs := []string{
		"DIMM based near memory processing accelerates vector search",
		"hierarchical navigable small world graphs index high dimensional vectors",
		"early termination skips distance computations beyond the threshold",
		"retrieval augmented generation grounds language models in documents",
		"product quantization compresses vectors with subspace codebooks",
		"the memory wall limits bandwidth between processors and DRAM",
		"inverted file indexes cluster vectors around centroids",
		"gardening in spring requires patience and good soil",
		"the recipe calls for two cups of flour and one egg",
		"stock markets fluctuate with interest rate announcements",
		"bank level parallelism hides DRAM activation latency",
		"cosine similarity compares the angle between embeddings",
		"football season starts in autumn with a derby match",
		"adaptive polling retrieves results from near data units",
		"zipf distributed queries create hot spots across memory ranks",
	}
	// Pad the corpus with shuffled variants so the index has real work.
	corpus := append([]string{}, docs...)
	for i := 0; i < 600; i++ {
		a, b := docs[i%len(docs)], docs[(i*7+3)%len(docs)]
		fa, fb := strings.Fields(a), strings.Fields(b)
		corpus = append(corpus, strings.Join(append(fa[:len(fa)/2], fb[len(fb)/2:]...), " "))
	}

	const dim = 64
	vectors := make([][]float32, len(corpus))
	for i, d := range corpus {
		vectors[i] = embed(d, dim)
	}

	db, err := ansmet.New(vectors, ansmet.Options{
		Metric:         ansmet.Cosine, // vectors pre-normalized by embed
		Elem:           ansmet.Float32,
		EfConstruction: 80,
	})
	if err != nil {
		log.Fatal(err)
	}

	sys, err := db.NewSystem(core.DefaultSystemConfig(core.NDPETOpt))
	if err != nil {
		log.Fatal(err)
	}
	model, err := sim.NewModel(sys, sim.DefaultConfig()) // the simulated NDP platform
	if err != nil {
		log.Fatal(err)
	}
	queries := []string{
		"how does near memory hardware speed up vector databases",
		"what stops unnecessary distance calculations",
		"baking bread with flour",
	}
	for _, q := range queries {
		run, err := model.Run([][]float32{embed(q, dim)}, 3, 32)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("query: %q\n", q)
		for _, n := range run.Results[0] {
			fmt.Printf("  %.3f  %s\n", -n.Dist, corpus[n.ID])
		}
		rep := run.Report
		fmt.Printf("  [simulated: %.1f us, fetched %d lines, %.0f%% effectual]\n\n",
			rep.AvgLatencyNs()/1000,
			rep.EffectualLines+rep.IneffectualLines,
			rep.FetchUtilization()*100)
	}
}
