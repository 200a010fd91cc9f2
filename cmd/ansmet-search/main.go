// Command ansmet-search builds an ANSMET database over a synthetic dataset
// profile, builds the NDP model of the selected design over its rows and
// graph, runs a query batch through it, and prints the search results
// alongside recall and simulated-platform statistics.
//
// Usage:
//
//	ansmet-search -profile SIFT -n 5000 -q 8 -k 10 -design NDP-ETOpt
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"ansmet"
	"ansmet/internal/core"
	"ansmet/internal/dataset"
	"ansmet/internal/sim"
)

func main() {
	profile := flag.String("profile", "SIFT", "dataset profile (SIFT, BigANN, SPACEV, DEEP, GloVe, Txt2Img, GIST)")
	n := flag.Int("n", 5000, "database size")
	nq := flag.Int("q", 8, "number of queries")
	k := flag.Int("k", 10, "neighbors to return")
	ef := flag.Int("ef", 64, "search beam width (efSearch)")
	efc := flag.Int("efc", 120, "HNSW efConstruction")
	designName := flag.String("design", "NDP-ETOpt", "design point (see Fig. 6 names)")
	seed := flag.Uint64("seed", 42, "generator seed")
	flag.Parse()
	p, design, err := checkFlags(*profile, *designName, *n, *nq, *k, *ef)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}

	fmt.Printf("generating %s-profile dataset: %d vectors x %d dims (%v, %v)\n",
		p.Name, *n, p.Dim, p.Elem, p.Metric)
	ds := dataset.Generate(p, *n, *nq, *seed)

	fmt.Printf("building index for %v ...\n", design)
	db, err := ansmet.New(ds.Vectors, ansmet.Options{
		Metric: p.Metric, Elem: p.Elem,
		EfConstruction: *efc, Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The design's model over the database's rows and graph.
	cfg := core.DefaultSystemConfig(design)
	cfg.Seed = *seed
	sys, err := db.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	m, err := sim.NewModel(sys, sim.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	run, err := m.Run(ds.Queries, *k, *ef)
	if err != nil {
		log.Fatal(err)
	}
	prefix, outliers, saved := 0, 0, 0.0
	if st := sys.Store; st != nil {
		prefix, outliers, saved = st.Prefix.PrefixLen, st.NumOutliers(), st.SpaceSavedFraction()*100
	}
	fmt.Printf("preprocessed in %.2fs: %d lines/vector, prefix=%d bits (saves %.1f%%), %d outlier vectors\n\n",
		sys.PreprocessSeconds, m.Timing.Part.LinesPerVector(), prefix, saved, outliers)
	gt := ds.GroundTruth(*k)
	recall := 0.0
	for qi, res := range run.Results {
		ids := make([]uint32, len(res))
		for i, nb := range res {
			ids[i] = nb.ID
		}
		recall += ansmet.RecallAtK(ids, gt[qi])
		if qi < 3 {
			fmt.Printf("query %d top-%d:", qi, *k)
			for _, nb := range res {
				fmt.Printf(" %d(%.3f)", nb.ID, nb.Dist)
			}
			fmt.Println()
		}
	}
	recall /= float64(len(run.Results))

	rep := run.Report
	fmt.Printf("\nrecall@%d          %.3f\n", *k, recall)
	fmt.Printf("simulated QPS      %.0f\n", rep.QPS())
	fmt.Printf("avg latency        %.1f us\n", rep.AvgLatencyNs()/1000)
	fmt.Printf("fetch utilization  %.1f%%\n", rep.FetchUtilization()*100)
	fmt.Printf("lines fetched      %d effectual + %d ineffectual\n",
		rep.EffectualLines, rep.IneffectualLines)
	fmt.Printf("unit imbalance     %.2fx (max/mean)\n", rep.ImbalanceRatio())
}

// checkFlags resolves the profile and the design, and rejects what no run
// can be made of before anything is generated: a vector, query or result
// count that is not positive, and a beam narrower than the result count.
func checkFlags(profile, design string, n, nq, k, ef int) (dataset.Profile, core.Design, error) {
	p, err := dataset.ParseProfile(profile)
	if err != nil {
		return p, 0, err
	}
	if n <= 0 || nq <= 0 || k <= 0 {
		return p, 0, fmt.Errorf("-n, -q and -k must be positive (got %d, %d, %d)", n, nq, k)
	}
	if ef < k {
		return p, 0, fmt.Errorf("-ef must be at least -k (got -ef %d, -k %d)", ef, k)
	}
	for _, d := range core.AllDesigns {
		if d.String() == design {
			return p, d, nil
		}
	}
	return p, 0, fmt.Errorf("unknown design %q; options: %v", design, core.AllDesigns)
}
