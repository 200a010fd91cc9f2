// Exact near-duplicate detection: a scenario where *approximate* is not
// good enough. An e-commerce catalog wants every product image whose
// descriptor is provably within a radius of a given item — missing one is a
// compliance problem, so the answer must be exact. ANSMET's early
// termination keeps it exact while skipping most of the data of
// clearly-unrelated items (the paper's §4.1 point that the bounds also
// accelerate accurate kNN): the NDP model's tiered route at budget 1 orders
// the catalog by cheap partial-bit bounds and re-ranks only what the bounds
// cannot rule out. The comparison below shows its fetch savings against the
// plain brute-force scan of the database's exact route, and that the two
// answers are the same.
package main

import (
	"context"
	"fmt"
	"log"

	"ansmet"
	"ansmet/internal/core"
	"ansmet/internal/dataset"
)

func main() {
	// A SIFT-profile catalog of 8000 image descriptors, with planted
	// near-duplicates: every 500th vector is a tiny perturbation of item 7.
	p := dataset.ProfileByName("SIFT")
	ds := dataset.Generate(p, 8000, 1, 123)
	for i := 500; i < len(ds.Vectors); i += 500 {
		dup := make([]float32, p.Dim)
		copy(dup, ds.Vectors[7])
		dup[i%p.Dim] += 1 // one quantization step off
		ds.Vectors[i] = dup
	}

	db, err := ansmet.New(ds.Vectors, ansmet.Options{
		Metric: ansmet.L2, Elem: ansmet.Uint8, EfConstruction: 80,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The NDP model over the catalog: the bit-plane store the tiered route
	// bounds from.
	sys, err := db.NewSystem(core.DefaultSystemConfig(core.NDPETOpt))
	if err != nil {
		log.Fatal(err)
	}
	// A stored vector is already quantized, as the model's engines expect.
	probe, ok := db.Vector(7)
	if !ok {
		log.Fatal("vector 7 missing")
	}
	const k = 20
	et := sys.NewWorkerEngine().(*core.ETEngine)
	nn, st := et.TieredKNNInto(nil, probe, k, core.TieredOpts{Budget: 1}, nil)
	lines := st.BoundLines + st.RerankLines

	// The exact route scans every row whole: the reference answer and the
	// full fetch.
	ref, err := db.Do(context.Background(), &ansmet.Query{Vector: probe, K: k, Route: ansmet.RouteExact})
	if err != nil {
		log.Fatal(err)
	}
	full := ref.Lines
	fmt.Printf("exact top-%d over %d vectors:\n", k, db.Len())
	dups := 0
	for _, n := range nn {
		if n.Dist <= 2 { // near-duplicate radius
			dups++
		}
	}
	fmt.Printf("  near-duplicates of item 7 found: %d (incl. itself)\n", dups)
	fmt.Printf("  lines fetched: %d of %d (%.0f%% skipped, zero accuracy loss; %d vectors re-ranked)\n",
		lines, full, 100*(1-float64(lines)/float64(full)), st.Pool)
	for i := range nn {
		if nn[i] != ref.Neighbors[i] {
			log.Fatalf("tiered and full scan disagree at rank %d: %v vs %v", i, nn[i], ref.Neighbors[i])
		}
	}
	fmt.Printf("  verified identical to the full scan (%d lines)\n", full)
}
