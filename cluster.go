package ansmet

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"ansmet/internal/cluster"
	"ansmet/internal/hnsw"
	"ansmet/internal/kmeans"
	"ansmet/internal/stats"
)

// PartitionScheme selects how vectors are assigned to shards.
type PartitionScheme int

const (
	// PartitionHash shards by jump consistent hash on the vector id
	// (default): balanced, stateless, and stable — growing from N to N+1
	// shards moves only ~1/(N+1) of the vectors.
	PartitionHash PartitionScheme = iota
	// PartitionKMeans shards by k-means cluster of the vector values, so a
	// query's true neighbors concentrate on few shards. Merged results are
	// identical either way (the merge is over the full fan-out); the
	// scheme changes which shard does the finding, not what is found.
	PartitionKMeans
)

var partitionNames = [...]string{"hash", "kmeans"}

// String names the scheme.
func (p PartitionScheme) String() string {
	if p < 0 || int(p) >= len(partitionNames) {
		return fmt.Sprintf("PartitionScheme(%d)", int(p))
	}
	return partitionNames[p]
}

// ParsePartitionScheme maps a flag string to a scheme.
func ParsePartitionScheme(s string) (PartitionScheme, error) {
	for i, n := range partitionNames {
		if s == n {
			return PartitionScheme(i), nil
		}
	}
	return 0, fmt.Errorf("ansmet: unknown partition scheme %q (want hash or kmeans)", s)
}

// ClusterOptions configures NewCluster: how to partition, how to build each
// shard, and how the fault-tolerant fan-out behaves.
type ClusterOptions struct {
	// Shards is the shard count (default 1).
	Shards int
	// Partition selects the vector→shard assignment (default PartitionHash).
	Partition PartitionScheme
	// Build configures each shard Database exactly like New.
	Build Options

	// MaxInFlightPerShard sheds per-shard overload (0 = unlimited).
	MaxInFlightPerShard int
	// DisableHedging turns off hedged requests to slow shards.
	DisableHedging bool
}

// fanoutConfig is the coordinator configuration; what it leaves unset
// (per-shard timeout, breaker threshold and backoff) keeps internal/cluster's
// defaults.
func (o ClusterOptions) fanoutConfig() cluster.Config {
	return cluster.Config{
		MaxInFlightPerShard: o.MaxInFlightPerShard,
		Hedge:               cluster.HedgeConfig{Disabled: o.DisableHedging},
		Breaker:             cluster.BreakerConfig{Seed: o.Build.Seed},
	}
}

// ShardFault is one entry of a degraded query's per-shard error taxonomy.
type ShardFault struct {
	// Shard is the failing shard's index.
	Shard int
	// Kind is the failure class: "crash", "timeout", "canceled",
	// "breaker-open", or "shed".
	Kind string
	// Err is the underlying cause.
	Err error
}

// ClusterResult is one scatter-gather search answer.
type ClusterResult struct {
	// Neighbors is the merged top-k in the canonical (Dist, ID) order —
	// with a healthy cluster, exactly what the unsharded search returns.
	Neighbors []Neighbor
	// Partial reports a degraded answer: at least one shard is missing
	// from the merge (down, slow, skipped, or shed).
	Partial bool
	// Faults says which shards degraded and how; nil when healthy.
	Faults []ShardFault
	// Route is the path every shard executed (see Cluster.Do).
	Route Route
}

// Cluster is a Database partitioned into independently searched shards
// behind a fault-tolerant scatter-gather coordinator. Build one with
// NewCluster or restore one with LoadClusterDir; search it with Do. Safe
// for concurrent use.
type Cluster struct {
	opts   ClusterOptions
	shards []*Database
	ids    [][]uint32 // shard-local row → global id
	coord  *cluster.Coordinator
	dim    int
	total  int
}

// NewCluster partitions the vectors, builds one Database per (non-empty)
// shard, and wires the scatter-gather coordinator over them.
func NewCluster(vectors [][]float32, opts ClusterOptions) (*Cluster, error) {
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	if len(vectors) == 0 {
		return nil, fmt.Errorf("ansmet: empty dataset")
	}
	assign, err := partitionVectors(vectors, opts)
	if err != nil {
		return nil, err
	}
	groups := make([][][]float32, opts.Shards)
	ids := make([][]uint32, opts.Shards)
	for i, s := range assign {
		groups[s] = append(groups[s], vectors[i])
		ids[s] = append(ids[s], uint32(i))
	}
	// Drop empty shards (tiny datasets or unlucky hashing): an empty shard
	// has nothing to search and Database refuses empty populations.
	var keptGroups [][][]float32
	var keptIDs [][]uint32
	for s := range groups {
		if len(groups[s]) > 0 {
			keptGroups = append(keptGroups, groups[s])
			keptIDs = append(keptIDs, ids[s])
		}
	}
	dbs := make([]*Database, len(keptGroups))
	errs := make([]error, len(keptGroups))
	var wg sync.WaitGroup
	for s := range keptGroups {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			dbs[s], errs[s] = New(keptGroups[s], opts.Build)
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("ansmet: building shard %d: %w", s, err)
		}
	}
	return assembleCluster(dbs, keptIDs, len(vectors), opts)
}

// assembleCluster wires built shard databases into a Cluster.
func assembleCluster(dbs []*Database, ids [][]uint32, total int, opts ClusterOptions) (*Cluster, error) {
	funcs := make([]cluster.ShardFunc, len(dbs))
	for s := range dbs {
		funcs[s] = shardSearchFunc(dbs[s], ids[s])
	}
	coord, err := cluster.New(funcs, opts.fanoutConfig())
	if err != nil {
		return nil, err
	}
	return &Cluster{
		opts: opts, shards: dbs, ids: ids, coord: coord,
		dim: dbs[0].rows.Dim(), total: total,
	}, nil
}

// partitionVectors computes the vector→shard assignment.
func partitionVectors(vectors [][]float32, opts ClusterOptions) ([]int, error) {
	assign := make([]int, len(vectors))
	switch opts.Partition {
	case PartitionHash:
		for i := range vectors {
			assign[i] = jumpHash(uint64(i), opts.Shards)
		}
	case PartitionKMeans:
		res, err := kmeans.Run(vectors, kmeans.Config{K: opts.Shards, Seed: opts.Build.Seed + 1})
		if err != nil {
			return nil, fmt.Errorf("ansmet: kmeans partitioning: %w", err)
		}
		copy(assign, res.Assign)
	default:
		return nil, fmt.Errorf("ansmet: unknown partition scheme %d", int(opts.Partition))
	}
	return assign, nil
}

// jumpHash is Lamping & Veach's jump consistent hash: uniform over buckets,
// and growing the bucket count relocates only ~1/(n+1) of the keys.
func jumpHash(key uint64, buckets int) int {
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// planKey carries the cluster-level plan of one Cluster.Do query through
// the coordinator's context to the shard search functions, keeping the
// cluster.ShardFunc signature intact.
type planKey struct{}

// shardPlan is what every shard of one query must agree on: the resolved
// route and the caller's global-id filter.
type shardPlan struct {
	route  Route
	filter func(uint32) bool
}

// shardSearchFunc adapts one shard Database into the coordinator's shard
// interface: run the context-carried plan shard-locally through Do, then
// remap local row ids to global vector ids and restore the canonical
// (Dist, ID) order the merge needs. On the exact route each shard returns
// its exact top-k, so the merged result is the exact global top-k.
func shardSearchFunc(db *Database, ids []uint32) cluster.ShardFunc {
	return func(ctx context.Context, q []float32, k, ef int, dst []hnsw.Neighbor) ([]hnsw.Neighbor, error) {
		plan := ctx.Value(planKey{}).(*shardPlan)
		sq := Query{Vector: q, K: k, Ef: ef, Route: plan.route, Dst: dst}
		if filter := plan.filter; filter != nil {
			// The caller's predicate speaks global ids.
			sq.Filter = func(id uint32) bool { return filter(ids[id]) }
		}
		res, err := db.Do(ctx, &sq)
		if err != nil {
			// Only a cancellation's usable partial is worth merging.
			var ce *CancelError
			if !errors.As(err, &ce) || !ce.Partial {
				return nil, err
			}
		}
		remapToGlobal(res.Neighbors, ids)
		return res.Neighbors, err
	}
}

// remapToGlobal rewrites shard-local row ids to global vector ids in place
// and restores the canonical order. The list stays sorted by distance, so
// only equal-distance runs can be out of order after remapping — insertion
// sort is linear on that shape and allocation-free.
func remapToGlobal(nn []Neighbor, ids []uint32) {
	for i := range nn {
		nn[i].ID = ids[nn[i].ID]
	}
	for i := 1; i < len(nn); i++ {
		for j := i; j > 0 && nn[j].Less(nn[j-1]); j-- {
			nn[j], nn[j-1] = nn[j-1], nn[j]
		}
	}
}

// Shards returns the number of (non-empty) shards.
func (c *Cluster) Shards() int { return len(c.shards) }

// Len returns the total number of indexed vectors across all shards.
func (c *Cluster) Len() int { return c.total }

// Do executes one query on every shard behind the fault-tolerant
// coordinator and merges the answers; Query means what it means to
// Database.Do, with Filter receiving GLOBAL vector ids (a nil Filter is
// never wrapped; a non-nil one is remapped to shard-local ids once per
// shard).
//
// The plan is resolved ONCE, on the first shard — whose router sees this
// cluster's traffic — and every shard then executes the same concrete route,
// so the scatter-gather merge stays coherent: mixing routes would merge
// answers of different quality classes. Each shard's own router observes
// the query it ran.
//
// The error is nil for both healthy and degraded answers — degradation is
// reported in the result (Partial, Faults), because a partial top-k is
// still an answer. It is non-nil only for invalid input, when the query's
// own context fired (the usual *CancelError contract, with any best-effort
// merge in the result) or when no shard produced anything at all.
func (c *Cluster) Do(ctx context.Context, q *Query) (ClusterResult, error) {
	lead := c.shards[0]
	ef := q.beam()
	if err := lead.validateQuery(q.Vector, q.K, ef); err != nil {
		return ClusterResult{Route: q.Route}, err
	}
	route, err := lead.resolveRoute(ctx, q)
	if err != nil {
		return ClusterResult{Route: q.Route}, err
	}
	plan := &shardPlan{route: route, filter: q.Filter}
	res, err := c.coord.SearchInto(context.WithValue(ctx, planKey{}, plan), q.Vector, q.K, ef, q.Dst)
	out := ClusterResult{Neighbors: res.Neighbors, Route: route, Partial: res.Partial}
	if len(res.Errors) > 0 {
		out.Faults = make([]ShardFault, len(res.Errors))
		for i, e := range res.Errors {
			out.Faults[i] = ShardFault{Shard: e.Shard, Kind: e.Kind.String(), Err: e.Err}
		}
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return out, cancelErr(ctx, len(out.Neighbors) > 0)
	}
	return out, err
}

// ClusterStats surfaces the cluster's health and degradation counters: the
// coordinator's fan-out/fault totals, each shard breaker's position, and
// the per-shard Database stats (the same ansmet.Stats an unsharded
// deployment reports).
type ClusterStats struct {
	Shards         int
	Vectors        int
	Partition      string
	DegradedShards int      // shards whose breaker is not closed
	BreakerStates  []string // per shard: closed / open / half-open

	// The coordinator's lifetime totals.
	cluster.MetricsSnapshot

	// Shard holds each shard Database's own Stats.
	Shard []Stats
}

// Stats reports the cluster's health counters.
func (c *Cluster) Stats() ClusterStats {
	st := ClusterStats{
		Shards: len(c.shards), Vectors: c.total, Partition: c.opts.Partition.String(),
		MetricsSnapshot: c.coord.Metrics().Snapshot(),
	}
	for _, b := range c.coord.BreakerStates() {
		st.BreakerStates = append(st.BreakerStates, b.String())
		if b != stats.BreakerClosed {
			st.DegradedShards++
		}
	}
	for _, db := range c.shards {
		st.Shard = append(st.Shard, db.Stats())
	}
	return st
}
