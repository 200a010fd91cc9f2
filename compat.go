package ansmet

import (
	"context"

	"ansmet/internal/core"
)

// This file holds the names the benchmark module (bench/) compiles against
// and nothing else uses: a database serves the host beam and the exact scan,
// and the NDP model's routes are built over it with NewSystem.

// RouteTiered names the exact scan: the answer the tiered route gives at
// budget 1, bit for bit.
const RouteTiered = RouteExact

// TieredStats reports one tiered query's work split (see internal/core).
type TieredStats = core.TieredStats

// System builds the NDP model at NDP-ETOpt with the database's seed, afresh
// on each call (see NewSystem).
func (db *Database) System() *core.System {
	cfg := core.DefaultSystemConfig(core.NDPETOpt)
	cfg.Seed = db.opts.Seed
	sys, err := db.NewSystem(cfg)
	if err != nil {
		// Every design builds over every non-empty slab: a bug, not an input.
		panic("ansmet: building the NDP model: " + err.Error())
	}
	return sys
}

// TieredSearchInto runs the exact scan, appending results into dst[:0]. At
// budget 1, the only one it answers for, that is the tiered route's answer
// bit for bit; the stats are the degenerate tiered plan: the whole
// population is the pool and every fetched line is a re-rank line.
func (db *Database) TieredSearchInto(q []float32, k int, budget float64, dst []Neighbor) ([]Neighbor, TieredStats, error) {
	return db.TieredSearchCtxInto(context.Background(), q, k, budget, dst)
}

// TieredSearchCtxInto is TieredSearchInto with cooperative cancellation; see
// Do for the exact route's partial-result contract.
func (db *Database) TieredSearchCtxInto(ctx context.Context, q []float32, k int, budget float64, dst []Neighbor) ([]Neighbor, TieredStats, error) {
	res, err := db.Do(ctx, &Query{Vector: q, K: k, Route: RouteExact, Dst: dst})
	return res.Neighbors, TieredStats{Pool: db.Len(), RerankLines: res.Lines}, err
}
