// Quickstart: build an ANSMET database over a handful of vectors, run a
// nearest-neighbor query on the default route (the HNSW beam over the rows
// with the host's SIMD kernels), and look at the paper's NDP model of the
// same database: its bit-plane layout after common-prefix elimination.
// Everything runs in-process.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"ansmet"
	"ansmet/internal/core"
)

func main() {
	// A tiny 2-D dataset: points on a spiral.
	var vectors [][]float32
	for i := 0; i < 500; i++ {
		t := float64(i) * 0.05
		vectors = append(vectors, []float32{
			float32(t * math.Cos(t)),
			float32(t * math.Sin(t)),
		})
	}

	db, err := ansmet.New(vectors, ansmet.Options{
		Metric:         ansmet.L2,
		Elem:           ansmet.Float32,
		EfConstruction: 64, // keep the demo build instant
	})
	if err != nil {
		log.Fatal(err)
	}

	query := []float32{3, 4}
	res, err := db.Do(context.Background(), &ansmet.Query{Vector: query, K: 5})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("5 nearest neighbors of (%.1f, %.1f):\n", query[0], query[1])
	for _, n := range res.Neighbors {
		v, _ := db.Vector(n.ID)
		fmt.Printf("  id=%3d  point=(%6.2f, %6.2f)  distance=%.3f\n", n.ID, v[0], v[1], n.Dist)
	}

	// The search ran on the host's SIMD kernels; the paper's NDP model is
	// built over the database on request.
	sys, err := db.NewSystem(core.DefaultSystemConfig(core.NDPETOpt))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npreprocessing: %d lines/vector, common prefix %d bits (saves %.1f%% storage)\n",
		sys.Store.SlotLines(), sys.Store.Prefix.PrefixLen, sys.Store.SpaceSavedFraction()*100)
}
