// Command ansmet-layout runs ANSMET's offline sampling analysis (paper
// §4.2) on a synthetic dataset profile and prints the bit-level statistics
// that drive the data-layout decision: the prefix entropy and
// early-termination frequency distributions (Fig. 3), the chosen common
// prefix, and the optimized dual-granularity fetch parameters.
//
// Usage:
//
//	ansmet-layout -profile DEEP -n 4000 -samples 100
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"ansmet/internal/dataset"
	"ansmet/internal/layout"
	"ansmet/internal/stats"
)

func main() {
	profile := flag.String("profile", "DEEP", "dataset profile")
	n := flag.Int("n", 4000, "database size to sample from")
	samples := flag.Int("samples", 100, "sampling-set size (paper default 100)")
	thr := flag.Float64("threshold", 0.90, "pairwise-distance percentile used as the ET threshold")
	budget := flag.Float64("outliers", 0.001, "allowed outlier element fraction for prefix elimination")
	seed := flag.Uint64("seed", 42, "generator seed")
	flag.Parse()
	p, err := dataset.ParseProfile(*profile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}

	ds := dataset.Generate(p, *n, 0, *seed)

	rng := stats.NewRNG(*seed + 1)
	perm := rng.Perm(len(ds.Vectors))
	count := *samples
	if count > len(ds.Vectors) {
		count = len(ds.Vectors)
	}
	sample := make([][]float32, count)
	for i := range sample {
		sample[i] = ds.Vectors[perm[i]]
	}

	opts := layout.DefaultOptions()
	opts.ThresholdPercentile = *thr
	opts.OutlierBudget = *budget
	an, err := layout.Analyze(sample, p.Elem, p.Metric, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s: %d-dim %v vectors, %v metric, %d samples\n",
		p.Name, p.Dim, p.Elem, p.Metric, count)
	fmt.Printf("ET threshold (%.0f%% percentile of pairwise distances): %.4f\n\n",
		*thr*100, an.Threshold)

	fmt.Println("bits  prefixEntropy  etFreq")
	for b := 0; b < p.Elem.Bits(); b++ {
		bar := ""
		for i := 0; i < int(an.ETFreq[b]*200); i++ {
			bar += "#"
		}
		fmt.Printf("%4d  %13.3f  %.4f %s\n", b+1, an.PrefixEntropy[b], an.ETFreq[b], bar)
	}
	fmt.Printf("never-terminating pair fraction: %.1f%%\n\n", an.NoTermFrac*100)

	fmt.Printf("common prefix: %d bits (value %#x) under %.2f%% outlier budget\n",
		an.CommonPrefixLen, an.CommonPrefixVal, *budget*100)
	withP := an.BestParams(true)
	noP := an.BestParams(false)
	fmt.Printf("optimized layout with prefix elimination:    %v\n", withP)
	fmt.Printf("optimized layout without prefix elimination: %v\n", noP)
	simple := layout.SimpleHeuristicSchedule(p.Elem)
	fmt.Printf("simple heuristic schedule (NDP-ET):          %v\n", simple)
}
