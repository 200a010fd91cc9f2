// Command ansmet-sim runs one design point of the simulated CPU+NDP
// platform over a synthetic workload and prints the offline pass (with its
// sampling analysis, paper §4.2 and Fig. 3, for the designs that sample),
// the first queries' results, recall and the full timing breakdown — the
// design-space exploration companion to ansmet-bench. It builds a database
// over the workload and the design's model over that database, as the
// library documents it; every platform knob of the paper's Table 1 is a flag.
//
// Usage:
//
//	ansmet-sim -profile GIST -design NDP-ETOpt -ranks 4 -sub 1024 -poll adaptive
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strings"

	"ansmet"
	"ansmet/internal/core"
	"ansmet/internal/dataset"
	"ansmet/internal/energy"
	"ansmet/internal/layout"
	"ansmet/internal/partition"
	"ansmet/internal/polling"
	"ansmet/internal/sim"
)

// options are the command line's values, as parsed.
type options struct {
	profile, design, scheme, poll            string
	n, nq, stream, k, ef, efc                int
	channels, dimms, ranks, sub, batch, jobs int
	pollNs                                   float64
	seed                                     uint64
}

func main() {
	var o options
	flag.StringVar(&o.profile, "profile", "DEEP", "dataset profile")
	flag.IntVar(&o.n, "n", 4000, "database size")
	flag.IntVar(&o.nq, "q", 32, "distinct queries")
	flag.IntVar(&o.stream, "stream", 96, "replayed query stream length (throughput regime)")
	flag.IntVar(&o.k, "k", 10, "result count")
	flag.IntVar(&o.ef, "ef", 60, "search beam width")
	flag.IntVar(&o.efc, "efc", 120, "HNSW efConstruction")
	flag.StringVar(&o.design, "design", "NDP-ETOpt", "design point")
	flag.IntVar(&o.channels, "channels", 4, "memory channels")
	flag.IntVar(&o.dimms, "dimms", 2, "DIMMs per channel")
	flag.IntVar(&o.ranks, "ranks", 4, "ranks per DIMM (NDP units = channels*dimms*ranks)")
	flag.StringVar(&o.scheme, "scheme", "hybrid", "partitioning: horizontal|vertical|hybrid")
	flag.IntVar(&o.sub, "sub", 1024, "hybrid sub-vector bytes")
	flag.StringVar(&o.poll, "poll", "conventional", "polling: conventional|adaptive")
	flag.Float64Var(&o.pollNs, "pollns", 100, "conventional polling interval (ns)")
	flag.IntVar(&o.batch, "batch", 8, "delayed-synchronization beam batch")
	flag.Uint64Var(&o.seed, "seed", 2025, "generator seed")
	flag.IntVar(&o.jobs, "parallel", 0, "functional-search workers (0 = GOMAXPROCS); output is identical at any setting")
	flag.Parse()
	p, design, mcfg, err := checkFlags(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}

	ds := dataset.Generate(p, o.n, o.nq, o.seed)
	db, err := ansmet.New(ds.Vectors, ansmet.Options{
		Metric: p.Metric, Elem: p.Elem,
		M: 8, MaxDegree: 16, EfConstruction: o.efc, Seed: o.seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultSystemConfig(design)
	cfg.Seed = o.seed
	cfg.BeamBatch = o.batch
	sys, err := db.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	m, err := sim.NewModel(sys, mcfg)
	if err != nil {
		log.Fatal(err)
	}
	run := m.RunHNSWParallel(ds.Queries, o.k, o.ef, o.jobs)
	rep := m.Stream(run, o.stream)
	recall := run.Recall(ds.GroundTruth(o.k))

	hops, tasks, lines := 0, 0, 0
	for _, tr := range run.Traces {
		hops += tr.NumHops()
		tasks += tr.TotalTasks()
		lines += tr.TotalLines()
	}
	nq64 := float64(len(rep.QueryLatencyNs))
	e := energy.Default().Compute(rep.EnergyActivity())
	prefix, outliers, saved := 0, 0, 0.0
	if st := sys.Store; st != nil {
		prefix, outliers, saved = st.Prefix.PrefixLen, st.NumOutliers(), st.SpaceSavedFraction()*100
	}

	fmt.Printf("design        %v on %s (%d vectors x %d dims %v, %v)\n",
		design, p.Name, o.n, p.Dim, p.Elem, p.Metric)
	fmt.Printf("platform      %d ch x %d DIMM x %d ranks = %d NDP units; %s",
		o.channels, o.dimms, o.ranks, o.channels*o.dimms*o.ranks, o.scheme)
	if mcfg.Scheme == partition.Hybrid {
		fmt.Printf(" (S=%dB)", o.sub)
	}
	fmt.Printf("; %s polling\n", o.poll)
	fmt.Printf("offline pass  %.2f s: %d lines/vector, prefix %d bits (saves %.1f%%), %d outlier vectors\n",
		sys.PreprocessSeconds, m.Timing.Part.LinesPerVector(), prefix, saved, outliers)
	if sys.Analysis != nil {
		printAnalysis(sys.Analysis, min(cfg.SampleSize, o.n))
	}
	fmt.Printf("workload      %d queries (x%d stream), k=%d ef=%d batch=%d; recall@%d %.3f\n",
		o.nq, len(rep.QueryLatencyNs)/o.nq, o.k, o.ef, o.batch, o.k, recall)
	fmt.Printf("per query     %d hops, %d comparisons, %d lines fetched\n",
		hops/len(run.Traces), tasks/len(run.Traces), lines/len(run.Traces))
	for qi, res := range run.Results[:min(3, len(run.Results))] {
		fmt.Printf("query %-7d top-%d:", qi, o.k)
		for _, nb := range res {
			fmt.Printf(" %d(%.3f)", nb.ID, nb.Dist)
		}
		fmt.Println()
	}
	fmt.Println()
	fmt.Printf("QPS           %.0f\n", rep.QPS())
	fmt.Printf("avg latency   %.2f us  (makespan %.1f us)\n", rep.AvgLatencyNs()/1000, rep.MakespanNs/1000)
	fmt.Printf("breakdown/q   traversal %.0f ns | offload %.0f ns | distcomp %.0f ns | collect %.0f ns\n",
		rep.TraversalNs/nq64, rep.OffloadNs/nq64, rep.DistCompNs/nq64, rep.CollectNs/nq64)
	fmt.Printf("traffic       host %.2f MB | rank-internal %.2f MB | fetch utilization %.1f%%\n",
		float64(rep.Mem.HostBytes)/1e6, float64(rep.Mem.NDPBytes)/1e6, rep.FetchUtilization()*100)
	fmt.Printf("fetched lines %d effectual + %d ineffectual\n", rep.EffectualLines, rep.IneffectualLines)
	fmt.Printf("DRAM          %d reads (%.1f%% row hits), %d refresh stalls, imbalance %.2fx\n",
		rep.Mem.Reads, 100*float64(rep.Mem.RowHits)/float64(rep.Mem.RowHits+rep.Mem.RowMisses),
		rep.Mem.Refreshes, rep.ImbalanceRatio())
	fmt.Printf("energy        %.2f mJ  (DRAM %.2f | CPU %.2f | NDP %.2f)\n",
		e.TotalMJ(), e.DRAMmJ, e.CPUmJ, e.NDPmJ)
	fmt.Printf("polling       %d poll reads\n", rep.PollCount)
}

// printAnalysis prints the offline pass's sampling analysis (Fig. 3 and the
// layouts chosen with and without the common prefix).
func printAnalysis(an *layout.Analysis, samples int) {
	fmt.Printf("ET threshold  %.4f (%.0f%% percentile of pairwise distances over %d samples)\n",
		an.Threshold, an.Opts.ThresholdPercentile*100, samples)
	fmt.Println("bits  prefixEntropy  etFreq")
	for b, h := range an.PrefixEntropy {
		fmt.Printf("%4d  %13.3f  %.4f %s\n", b+1, h, an.ETFreq[b], strings.Repeat("#", int(an.ETFreq[b]*200)))
	}
	fmt.Printf("never-terminating pair fraction: %.1f%%\n", an.NoTermFrac*100)
	fmt.Printf("common prefix: %d bits (value %#x) under %.2f%% outlier budget\n",
		an.CommonPrefixLen, an.CommonPrefixVal, an.Opts.OutlierBudget*100)
	fmt.Printf("optimized layout with prefix elimination:    %v\n", an.BestParams(true))
	fmt.Printf("optimized layout without prefix elimination: %v\n", an.BestParams(false))
	fmt.Printf("simple heuristic schedule (NDP-ET):          %v\n", layout.SimpleHeuristicSchedule(an.Elem))
}

// checkFlags resolves the profile, the design and the platform, and rejects
// before anything is generated what no run can be made of: a count that is
// not positive, a beam narrower than k, a construction beam that is not
// positive, a geometry without ranks, a
// sub-vector below one 64 B line, a polling interval that is not positive,
// and a name no design, scheme or policy has.
func checkFlags(o options) (dataset.Profile, core.Design, sim.Config, error) {
	cfg := sim.DefaultConfig()
	p, err := dataset.ParseProfile(o.profile)
	if err != nil {
		return p, 0, cfg, err
	}
	if o.n <= 0 || o.nq <= 0 || o.stream <= 0 || o.k <= 0 {
		return p, 0, cfg, fmt.Errorf("-n, -q, -stream and -k must be positive (got %d, %d, %d, %d)", o.n, o.nq, o.stream, o.k)
	}
	if o.ef < o.k {
		return p, 0, cfg, fmt.Errorf("-ef must be at least -k (got -ef %d, -k %d)", o.ef, o.k)
	}
	if o.efc <= 0 {
		return p, 0, cfg, fmt.Errorf("-efc must be positive (got %d)", o.efc)
	}
	if o.channels <= 0 || o.dimms <= 0 || o.ranks <= 0 {
		return p, 0, cfg, fmt.Errorf("-channels, -dimms and -ranks must be positive (got %d, %d, %d)", o.channels, o.dimms, o.ranks)
	}
	if o.sub < 64 {
		return p, 0, cfg, fmt.Errorf("-sub must be at least one 64 B line (got %d)", o.sub)
	}
	if !(o.pollNs > 0) || math.IsInf(o.pollNs, 1) {
		return p, 0, cfg, fmt.Errorf("-pollns must be a positive interval (got %v)", o.pollNs)
	}
	var design core.Design
	ok := false
	for _, d := range core.AllDesigns {
		if d.String() == o.design {
			design, ok = d, true
		}
	}
	if !ok {
		return p, 0, cfg, fmt.Errorf("unknown design %q; options: %v", o.design, core.AllDesigns)
	}
	schemes := map[string]partition.Scheme{"horizontal": partition.Horizontal, "vertical": partition.Vertical, "hybrid": partition.Hybrid}
	polls := map[string]polling.Policy{"conventional": polling.Conventional{IntervalNs: o.pollNs}, "adaptive": polling.Adaptive{}}
	if cfg.Scheme, ok = schemes[o.scheme]; !ok {
		return p, 0, cfg, fmt.Errorf("unknown -scheme %q; options: horizontal, vertical, hybrid", o.scheme)
	}
	if cfg.Poll, ok = polls[o.poll]; !ok {
		return p, 0, cfg, fmt.Errorf("unknown -poll %q; options: conventional, adaptive", o.poll)
	}
	cfg.Mem.Channels, cfg.Mem.DIMMsPerChannel, cfg.Mem.RanksPerDIMM = o.channels, o.dimms, o.ranks
	cfg.SubVectorBytes = o.sub
	return p, design, cfg, nil
}
