// Command ansmet-search builds an ANSMET database over a synthetic dataset
// profile, runs a query batch through the selected design, and prints the
// search results alongside recall and simulated-platform statistics.
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
	p, err := checkFlags(*profile, *nq, *k)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}

	var design ansmet.Design
	found := false
	for _, d := range ansmet.AllDesigns {
		if d.String() == *designName {
			design, found = d, true
		}
	}
	if !found {
		log.Fatalf("unknown design %q; options: %v", *designName, ansmet.AllDesigns)
	}

	fmt.Printf("generating %s-profile dataset: %d vectors x %d dims (%v, %v)\n",
		p.Name, *n, p.Dim, p.Elem, p.Metric)
	ds := dataset.Generate(p, *n, *nq, *seed)

	fmt.Printf("building index for %v ...\n", design)
	db, err := ansmet.New(ds.Vectors, ansmet.Options{
		Metric: p.Metric, Elem: p.Elem,
		EfConstruction: *efc, Seed: *seed,
		Design: ansmet.UseDesign(design),
	})
	if err != nil {
		log.Fatal(err)
	}

	// System builds the NDP model; Stats reports its preprocessing from then on.
	run, err := sim.NewModel(db.System()).Run(ds.Queries, *k, *ef)
	if err != nil {
		log.Fatal(err)
	}
	st := db.Stats()
	fmt.Printf("preprocessed in %.2fs: %d lines/vector, prefix=%d bits (saves %.1f%%), %d outlier vectors\n\n",
		st.PreprocessSeconds, st.LinesPerVector, st.PrefixBits, st.SpaceSavedPercent, st.Outliers)
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

// checkFlags resolves the profile and rejects a query count or a result
// count that is not positive.
func checkFlags(profile string, nq, k int) (dataset.Profile, error) {
	p, err := dataset.ParseProfile(profile)
	if err != nil {
		return p, err
	}
	if nq <= 0 || k <= 0 {
		return p, fmt.Errorf("-q and -k must be positive (got -q %d, -k %d)", nq, k)
	}
	return p, nil
}
