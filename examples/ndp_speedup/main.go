// NDP speedup study: the hardware-evaluation scenario. Given one workload
// (a DEEP-profile dataset of image-descriptor vectors), compare all nine
// design points of the paper — CPU baselines, plain NDP offload, and the
// early-termination variants — on throughput, memory traffic and energy,
// using the bundled cycle-level timing simulation. One database holds the
// rows and the graph; each design is a model built over them. This is a
// miniature version of the paper's Fig. 6/7 sweep, runnable in seconds.
package main

import (
	"fmt"
	"log"

	"ansmet"
	"ansmet/internal/core"
	"ansmet/internal/dataset"
	"ansmet/internal/energy"
	"ansmet/internal/sim"
)

func main() {
	p := dataset.ProfileByName("DEEP")
	ds := dataset.Generate(p, 3000, 24, 7)
	gt := ds.GroundTruth(10)
	model := energy.Default()

	fmt.Printf("workload: %d x %d-dim %v vectors (%v), 24 queries, k=10\n\n",
		len(ds.Vectors), p.Dim, p.Elem, p.Metric)
	fmt.Printf("%-12s %10s %9s %10s %9s %8s\n",
		"design", "QPS", "speedup", "traffic", "energy", "recall")

	db, err := ansmet.New(ds.Vectors, ansmet.Options{
		Metric: p.Metric, Elem: p.Elem,
		EfConstruction: 100, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	base := db.System()

	var baseQPS, baseMJ float64
	for _, d := range core.AllDesigns {
		cfg := core.DefaultSystemConfig(d)
		cfg.Seed = 7
		sys, err := core.NewSystem(base.Rows(), base.Metric, base.Index, cfg)
		if err != nil {
			log.Fatal(err)
		}
		run, err := sim.NewModel(sys).Run(ds.Queries, 10, 64)
		if err != nil {
			log.Fatal(err)
		}
		rep := run.Report

		recall := 0.0
		for qi, res := range run.Results {
			ids := make([]uint32, len(res))
			for i, nb := range res {
				ids[i] = nb.ID
			}
			recall += ansmet.RecallAtK(ids, gt[qi])
		}
		recall /= float64(len(run.Results))

		mj := model.Compute(rep.EnergyActivity()).TotalMJ()
		if d == core.CPUBase {
			baseQPS, baseMJ = rep.QPS(), mj
		}
		fmt.Printf("%-12s %10.0f %8.2fx %9.1fMB %8.2fx %8.3f\n",
			d, rep.QPS(), rep.QPS()/baseQPS,
			float64(rep.Mem.HostBytes+rep.Mem.NDPBytes)/1e6,
			mj/baseMJ, recall)
	}
	fmt.Println("\nrecall is identical across designs: early termination is lossless by construction.")
}
