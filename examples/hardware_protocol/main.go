// Hardware protocol walk-through: drive an NDP unit directly through the
// four DDR-encoded instructions of the paper's Fig. 5(e) — configure,
// set-query, set-search and poll — the way the host memory controller
// would, and watch early termination happen at the register level. This is
// the lowest-level API in the repository; the higher layers (Database,
// System) wrap exactly this protocol.
package main

import (
	"fmt"
	"log"

	"ansmet/internal/bitplane"
	"ansmet/internal/dataset"
	"ansmet/internal/ndp"
)

func main() {
	// A small DEEP-profile rank: 64 fp32 vectors in the transformed
	// bit-plane layout (one 8-bit group, then 4-bit groups).
	p := dataset.ProfileByName("DEEP")
	ds := dataset.Generate(p, 64, 1, 42)
	sched := bitplane.DualSchedule(p.Elem, 0, 8, 1, 4)
	layout := bitplane.MustLayout(p.Elem, p.Dim, sched)

	slab := make([]byte, len(ds.Vectors)*layout.VectorBytes())
	var codes []uint32
	for i, v := range ds.Vectors {
		codes = p.Elem.EncodeVector(v, codes[:0])
		layout.Transform(codes, slab[i*layout.VectorBytes():(i+1)*layout.VectorBytes()])
	}
	unit := ndp.NewUnit(ndp.SliceRank{Bytes: slab, VectorBytes: layout.VectorBytes()})

	// 1. configure: element type, dimension, metric, ET parameters.
	cfgPayload := ndp.EncodeConfigure(ndp.Config{
		Elem: p.Elem, Dim: uint16(p.Dim), Metric: p.Metric,
		Nc: 8, Tc: 1, Nf: 4,
	})
	if err := unit.Configure(cfgPayload); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("configure: %v %d-dim, %v, schedule %v (%d lines/vector)\n",
		p.Elem, p.Dim, p.Metric, sched, layout.LinesPerVector())

	// 2. set-search first (the paper's ordering optimization): a full
	// payload of tasks with a tight threshold so most early-terminate.
	q := ds.Queries[0]
	// Threshold just above the best of the batch, so the others must be
	// rejected — mostly from their first fetched lines.
	best := p.Metric.Distance(q, ds.Vectors[0])
	for addr := 1; addr < ndp.TasksPerQSHR; addr++ {
		if d := p.Metric.Distance(q, ds.Vectors[addr]); d < best {
			best = d
		}
	}
	threshold := float32(best) * 1.02
	var tasks []ndp.Task
	for addr := uint32(0); addr < ndp.TasksPerQSHR; addr++ {
		tasks = append(tasks, ndp.Task{Addr: addr, Threshold: threshold})
	}
	searchPayload, count, err := ndp.EncodeSetSearch(tasks)
	if err != nil {
		log.Fatal(err)
	}
	const qshr = 5
	if err := unit.SetSearch(qshr, count, searchPayload); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("set-search: %d tasks to QSHR %d, threshold %.3f\n", count, qshr, threshold)

	// 3. set-query: the query vector in 64 B chunks.
	chunks, err := ndp.EncodeQueryChunks(p.Elem, q)
	if err != nil {
		log.Fatal(err)
	}
	for seq, c := range chunks {
		if err := unit.SetQuery(qshr, seq, c); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("set-query: %d chunks (%d B query)\n", len(chunks), len(q)*p.Elem.Bytes())

	// 4. poll: a DDR READ returns the encoded response payload.
	raw, err := unit.Poll(qshr)
	if err != nil {
		log.Fatal(err)
	}
	resp := ndp.DecodePollResponse(raw)
	fmt.Printf("poll: done=%v mask=%08b faults=%08b, %d lines fetched (full batch would be %d)\n\n",
		resp.Completed, resp.DoneMask, resp.FaultMask, resp.FetchCnt, count*layout.LinesPerVector())
	for i := 0; i < count; i++ {
		if resp.Dist[i] == ndp.InvalidDist {
			d := p.Metric.Distance(q, ds.Vectors[tasks[i].Addr])
			fmt.Printf("  task %d (vec %d): REJECTED (register holds invalid MAX; true distance %.3f)\n",
				i, tasks[i].Addr, d)
		} else {
			fmt.Printf("  task %d (vec %d): accepted, distance %.3f\n", i, tasks[i].Addr, resp.Dist[i])
		}
	}

	// Sanity: the distances in the registers match host-side math.
	for i := 0; i < count; i++ {
		if resp.Dist[i] != ndp.InvalidDist {
			want := p.Metric.Distance(q, ds.Vectors[tasks[i].Addr])
			if diff := float64(resp.Dist[i]) - want; diff > 1e-4 || diff < -1e-4 {
				log.Fatalf("register %d mismatch: %v vs %v", i, resp.Dist[i], want)
			}
		}
	}
	fmt.Println("\nregister distances verified against host-side computation")

}
