// Command ansmet-bench regenerates the paper's evaluation tables and
// figures (§7) on the scaled-down synthetic workloads and prints them as
// text tables. See DESIGN.md for the per-experiment index and
// EXPERIMENTS.md for a discussion of paper-vs-measured results.
//
// Usage:
//
//	ansmet-bench [-quick] [-exp fig1,fig6,table5] [-k 10] [-parallel N]
//
// With no -exp, every experiment runs in paper order.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ansmet/internal/experiments"
)

// job is one experiment under its -exp name; run takes Fig. 6's k values.
type job struct {
	name string
	run  func(*experiments.Runner, []int) *experiments.Table
}

// jobs lists every experiment in paper order.
var jobs = []job{
	{"fig1", noK((*experiments.Runner).Fig01)},
	{"fig3", noK((*experiments.Runner).Fig03)},
	{"fig6", (*experiments.Runner).Fig06},
	{"fig7", noK((*experiments.Runner).Fig07)},
	{"fig8", noK((*experiments.Runner).Fig08)},
	{"fig9", noK((*experiments.Runner).Fig09)},
	{"fig10", noK((*experiments.Runner).Fig10)},
	{"fig11", noK((*experiments.Runner).Fig11)},
	{"fig12", noK((*experiments.Runner).Fig12)},
	{"table3", noK((*experiments.Runner).Table3)},
	{"table4", noK((*experiments.Runner).Table4)},
	{"table5", noK((*experiments.Runner).Table5)},
	{"replication", noK((*experiments.Runner).Replication)},
	{"ablation-batch", noK((*experiments.Runner).AblationBeamBatch)},
	{"ablation-quant", noK((*experiments.Runner).AblationQuantization)},
	{"frontier", noK((*experiments.Runner).FigTieredFrontier)},
	{"precision", noK((*experiments.Runner).FigPrecisionFrontier)},
}

// noK adapts a generator that takes no k values.
func noK(gen func(*experiments.Runner) *experiments.Table) func(*experiments.Runner, []int) *experiments.Table {
	return func(r *experiments.Runner, _ []int) *experiments.Table { return gen(r) }
}

func main() {
	names := make([]string, len(jobs))
	for i, j := range jobs {
		names[i] = j.name
	}
	quick := flag.Bool("quick", false, "use the small smoke-test workload scale")
	exp := flag.String("exp", "all", "comma-separated experiments, or all: "+strings.Join(names, ","))
	k := flag.String("k", "1,5,10", "result counts for fig6")
	parallel := flag.Int("parallel", 0, "experiment cell workers (0 = GOMAXPROCS); tables are identical at any setting")
	flag.Parse()
	run, ks, err := checkFlags(*exp, *k)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}

	scale := experiments.DefaultScale()
	if *quick {
		scale = experiments.QuickScale()
	}
	r := experiments.NewRunner(scale).Parallel(*parallel)

	fmt.Printf("ANSMET reproduction benchmarks (scale: %d datasets, %d queries, efConstruction=%d)\n\n",
		len(scale.N), scale.Queries, scale.EfConstruction)
	for _, j := range run {
		start := time.Now()
		tab := j.run(r, ks)
		tab.Notes = append(tab.Notes, fmt.Sprintf("generated in %.1fs", time.Since(start).Seconds()))
		tab.Format(os.Stdout)
	}
}

// checkFlags resolves -exp to the jobs it names, in paper order ("all" names
// every one), and -k to Fig. 6's result counts. A name no job has and a k
// that is not a positive integer are errors.
func checkFlags(exp, k string) ([]job, []int, error) {
	want := map[string]bool{}
	for _, s := range strings.Split(exp, ",") {
		want[strings.TrimSpace(strings.ToLower(s))] = true
	}
	var run []job
	for _, j := range jobs {
		if want["all"] || want[j.name] {
			run = append(run, j)
		}
		delete(want, j.name)
	}
	delete(want, "all")
	for name := range want {
		return nil, nil, fmt.Errorf("unknown experiment %q in -exp", name)
	}
	var ks []int
	for _, s := range strings.Split(k, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v <= 0 {
			return nil, nil, fmt.Errorf("-k takes positive integers (got %q)", s)
		}
		ks = append(ks, v)
	}
	return run, ks, nil
}
