//go:build !race

// Not built under the race detector: the race runtime makes sync.Pool
// intentionally nondeterministic and instruments allocations, so an
// allocation budget means nothing there.

package cluster

import (
	"context"
	"testing"
	"time"

	"ansmet/internal/hnsw"
)

// BenchmarkClusterSearchAllocs pins the steady-state allocation cost of the
// healthy scatter-gather path (4 shards, warm state pool, warm latency
// trackers). The residual allocations are the per-query context machinery
// and the fan-out goroutines; the gather state, result buffers, cursor
// merge, and hedge timer are all pooled or stack-resident.
// TestClusterSearchAllocs holds this to a fixed budget so coordinator
// overhead cannot silently regress.
func BenchmarkClusterSearchAllocs(b *testing.B) {
	lists := fourLists()
	var shards []ShardFunc
	for _, l := range lists {
		shards = append(shards, staticShard(l))
	}
	c, err := New(shards, Config{})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	dst := make([]hnsw.Neighbor, 0, 16)
	for i := 0; i < 64; i++ { // warm pool + latency trackers
		if _, err := c.SearchInto(ctx, nil, 5, 32, dst); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.SearchInto(ctx, nil, 5, 32, dst)
		if err != nil {
			b.Fatal(err)
		}
		if res.Partial {
			b.Fatal("benchmark query degraded")
		}
	}
}

// TestClusterSearchAllocs: the healthy scatter-gather costs at most 12
// allocations per query (the benchmark's own count, over its own body).
func TestClusterSearchAllocs(t *testing.T) {
	res := testing.Benchmark(BenchmarkClusterSearchAllocs)
	if res.N == 0 {
		t.Fatal("the benchmark failed")
	}
	if n := res.AllocsPerOp(); n > 12 {
		t.Fatalf("%d allocs per scatter-gather query, budget 12", n)
	}
}
