package ansmet_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ansmet"
	"ansmet/internal/dataset"
)

var clusterShardCounts = []int{1, 2, 3, 7, 16}

// assertFullyReachable pins the precondition the exhaustive-beam identity
// argument needs (DESIGN.md, "Cluster fault model and degradation
// semantics"): with ef ≥ n, beam search returns the exact top-k only if
// every vector is reachable from the query's base-layer entry point. The
// base graph is DIRECTED (neighbor pruning is asymmetric), so reachability
// is per-query, not per-index — the assertion runs for every query on both
// sides of the comparison. If a future graph-construction change strands a
// vector, this fails loudly instead of the identity diff failing
// cryptically.
func assertFullyReachable(t *testing.T, name string, found, n int) {
	t.Helper()
	if found != n {
		t.Fatalf("%s: exhaustive search reaches %d of %d vectors; "+
			"pick a dataset/seed with a fully connected graph for the identity test", name, found, n)
	}
}

// clusterExact runs the exact route through the coordinator — the fan-out,
// remap and k-way merge Cluster.Do serves — and requires a healthy answer.
func clusterExact(t *testing.T, cl *ansmet.Cluster, q []float32, k int) []ansmet.Neighbor {
	t.Helper()
	res, err := cl.Do(context.Background(), &ansmet.Query{Vector: q, K: k, Route: ansmet.RouteExact})
	if err != nil || res.Route != ansmet.RouteExact || res.Partial || len(res.Faults) != 0 {
		t.Fatalf("shards=%d k=%d exact: route=%v partial=%v faults=%v err=%v",
			cl.Shards(), k, res.Route, res.Partial, res.Faults, err)
	}
	return res.Neighbors
}

// TestClusterMergeByteIdenticalToUnsharded is the merge-correctness
// property test: across every shard count in {1,2,3,7,16} and both
// partition schemes, the scatter-gather answer is byte-identical to the
// unpartitioned Database's. Identity is pinned in the two regimes where it
// provably holds:
//
//   - exhaustive beam (ef ≥ n): both sides return the exact top-k of a
//     fully reachable graph (precondition asserted), so the fan-out +
//     remap + k-way merge must reproduce the unsharded answer bit for bit;
//   - the exact route through the coordinator, at ANY k, with no
//     reachability caveat.
//
// The dataset/build combination below was selected by sweeping for full
// reachability of the unsharded graph AND of every shard sub-graph across
// all shard counts and both schemes; HNSW neighbor pruning routinely
// strands 1-2 vectors at larger n (see DESIGN.md), which would invalidate
// the exhaustive-beam premise, so the precondition is asserted explicitly.
func TestClusterMergeByteIdenticalToUnsharded(t *testing.T) {
	p := dataset.ProfileByName("DEEP") // float32: distinct vectors
	const n = 96
	ds := dataset.Generate(p, n, 6, 21)
	build := ansmet.Options{Metric: p.Metric, Elem: p.Elem, M: 24, MaxDegree: 24, EfConstruction: 200, Seed: 4}
	db, err := ansmet.New(ds.Vectors, build)
	if err != nil {
		t.Fatal(err)
	}
	const exhaustive = n + 16
	ctx := context.Background()
	for qi, q := range ds.Queries {
		full, err := db.SearchInto(q, n, exhaustive, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertFullyReachable(t, fmt.Sprintf("unsharded q%d", qi), len(full), n)
	}

	for _, shards := range clusterShardCounts {
		for _, scheme := range []ansmet.PartitionScheme{ansmet.PartitionHash, ansmet.PartitionKMeans} {
			cl, err := ansmet.NewCluster(ds.Vectors, ansmet.ClusterOptions{
				Shards: shards, Partition: scheme, Build: build, DisableHedging: true,
			})
			if err != nil {
				t.Fatalf("shards=%d %v: %v", shards, scheme, err)
			}
			for qi, q := range ds.Queries {
				res, err := cl.Do(ctx, &ansmet.Query{Vector: q, K: n, Ef: exhaustive, Route: ansmet.RouteNDP})
				if err != nil {
					t.Fatal(err)
				}
				assertFullyReachable(t, fmt.Sprintf("cluster shards=%d %v q%d", shards, scheme, qi), len(res.Neighbors), n)
			}

			for qi, q := range ds.Queries {
				for _, k := range []int{1, 5, 10, 40} {
					want, err := db.SearchInto(q, k, exhaustive, nil)
					if err != nil {
						t.Fatal(err)
					}
					res, err := cl.Do(ctx, &ansmet.Query{Vector: q, K: k, Ef: exhaustive, Route: ansmet.RouteNDP})
					if err != nil {
						t.Fatalf("shards=%d %v q%d k%d: %v", shards, scheme, qi, k, err)
					}
					if res.Partial || len(res.Faults) != 0 {
						t.Fatalf("shards=%d %v q%d k%d: healthy query degraded: %+v", shards, scheme, qi, k, res)
					}
					if !reflect.DeepEqual(res.Neighbors, want) {
						t.Fatalf("shards=%d %v q%d k%d:\n  cluster  %v\n  unsharded %v",
							shards, scheme, qi, k, res.Neighbors, want)
					}
					// The exact path is provably identical at ANY k, no
					// reachability caveat.
					wantExact, _, err := exactSearch(db, q, k)
					if err != nil {
						t.Fatal(err)
					}
					gotExact := clusterExact(t, cl, q, k)
					if !reflect.DeepEqual(gotExact, wantExact) {
						t.Fatalf("shards=%d %v q%d k%d exact:\n  cluster  %v\n  unsharded %v",
							shards, scheme, qi, k, gotExact, wantExact)
					}
				}
			}
		}
	}
}

// TestClusterExactIdenticalAtScale extends the exact-scan identity to a
// dataset large enough that HNSW graphs are NOT fully reachable (n=300
// routinely strands a vector or two regardless of build parameters — the
// reason the beam identity above runs on a vetted small dataset). The
// exact path needs no graph at all, so identity holds at any k with no
// precondition; this pins the coordinator's fan-out + remap + k-way merge
// at a scale the beam test cannot reach.
func TestClusterExactIdenticalAtScale(t *testing.T) {
	p := dataset.ProfileByName("DEEP")
	const n = 300
	ds := dataset.Generate(p, n, 6, 21)
	build := ansmet.Options{Metric: p.Metric, Elem: p.Elem, EfConstruction: 60, Seed: 7}
	db, err := ansmet.New(ds.Vectors, build)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range clusterShardCounts {
		for _, scheme := range []ansmet.PartitionScheme{ansmet.PartitionHash, ansmet.PartitionKMeans} {
			cl, err := ansmet.NewCluster(ds.Vectors, ansmet.ClusterOptions{
				Shards: shards, Partition: scheme, Build: build, DisableHedging: true,
			})
			if err != nil {
				t.Fatalf("shards=%d %v: %v", shards, scheme, err)
			}
			for qi, q := range ds.Queries {
				for _, k := range []int{1, 5, 10, 40, n} {
					want, _, err := exactSearch(db, q, k)
					if err != nil {
						t.Fatal(err)
					}
					got := clusterExact(t, cl, q, k)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("shards=%d %v q%d k%d exact:\n  cluster  %v\n  unsharded %v",
							shards, scheme, qi, k, got, want)
					}
				}
			}
		}
	}
}

// TestClusterMergeTiesAtBoundary forces distance ties straddling the k
// boundary: vectors are coordinate rotations at a handful of exact
// distance shells around the origin query, making the k-th and (k+1)-th
// results tie constantly. Massive tie groups make a degenerate HNSW graph
// (pruning strands most of a tie shell), so the comparison runs on the
// exact path — which scans every vector regardless of graph shape and is
// provably identical at any k. Only the canonical (Dist, ID) order keeps
// sharded and unsharded answers byte-identical through the tie runs.
func TestClusterMergeTiesAtBoundary(t *testing.T) {
	const dim = 8
	var vectors [][]float32
	// Shells: all distinct placements of value v at position p (plus a ±
	// variant) share one exact distance to the origin query.
	for _, v := range []float32{1, 2, 3} {
		for p := 0; p < dim; p++ {
			for _, sign := range []float32{1, -1} {
				vec := make([]float32, dim)
				vec[p] = sign * v
				vectors = append(vectors, vec)
			}
		}
	}
	n := len(vectors) // 48 vectors in 3 shells of 16-way ties
	q := make([]float32, dim)
	build := ansmet.Options{EfConstruction: 40, Seed: 3}
	db, err := ansmet.New(vectors, build)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range clusterShardCounts {
		for _, scheme := range []ansmet.PartitionScheme{ansmet.PartitionHash, ansmet.PartitionKMeans} {
			cl, err := ansmet.NewCluster(vectors, ansmet.ClusterOptions{
				Shards: shards, Partition: scheme, Build: build, DisableHedging: true,
			})
			if err != nil {
				t.Fatalf("shards=%d %v: %v", shards, scheme, err)
			}
			// k values chosen to land inside the 16-way tie runs, plus the
			// boundary k=n (every vector, every tie resolved by ID).
			for _, k := range []int{1, 3, 7, 12, 20, 40, n} {
				want, _, err := exactSearch(db, q, k)
				if err != nil {
					t.Fatal(err)
				}
				got := clusterExact(t, cl, q, k)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("shards=%d %v k=%d exact ties:\n  cluster  %v\n  unsharded %v",
						shards, scheme, k, got, want)
				}
				for i := 1; i < len(got); i++ {
					if got[i].Dist < got[i-1].Dist ||
						(got[i].Dist == got[i-1].Dist && got[i].ID <= got[i-1].ID) {
						t.Fatalf("shards=%d %v k=%d: result %d out of canonical (Dist, ID) order: %v",
							shards, scheme, k, i, got)
					}
				}
			}
		}
	}
}

// TestClusterFilteredMatchesUnsharded extends the identity property to the
// attribute-filtered path, which rides the coordinator like every other
// query. The default beam derives from k, so the dataset is sized to keep
// that beam exhaustive (2k ≥ n) — the regime where filtered identity is
// guaranteed on fully reachable graphs. The nil filter is "accept
// everything", as on a Database; it must not be wrapped (the parent's
// Cluster.SearchFiltered called it inside a shard goroutine and crashed the
// process).
func TestClusterFilteredMatchesUnsharded(t *testing.T) {
	p := dataset.ProfileByName("DEEP")
	const n = 96 // same vetted fully-reachable build as the beam identity test
	ds := dataset.Generate(p, n, 6, 21)
	build := ansmet.Options{Metric: p.Metric, Elem: p.Elem, M: 24, MaxDegree: 24, EfConstruction: 200, Seed: 4}
	db, err := ansmet.New(ds.Vectors, build)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range ds.Queries {
		full, err := db.SearchInto(q, n, n+16, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertFullyReachable(t, fmt.Sprintf("unsharded filtered q%d", qi), len(full), n)
	}
	filters := []struct {
		name   string
		filter func(uint32) bool
	}{
		{"id%3==0", func(id uint32) bool { return id%3 == 0 }},
		{"nil", nil},
	}
	const k = 48 // beam 2k = 96 ≥ n: exhaustive
	ctx := context.Background()
	for _, shards := range clusterShardCounts {
		cl, err := ansmet.NewCluster(ds.Vectors, ansmet.ClusterOptions{
			Shards: shards, Build: build, DisableHedging: true,
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for qi, q := range ds.Queries {
			res, err := cl.Do(ctx, &ansmet.Query{Vector: q, K: n, Ef: n + 16, Route: ansmet.RouteNDP})
			if err != nil {
				t.Fatal(err)
			}
			assertFullyReachable(t, fmt.Sprintf("cluster filtered shards=%d q%d", shards, qi), len(res.Neighbors), n)
		}
		for _, f := range filters {
			for qi, q := range ds.Queries {
				want, err := searchFiltered(db, q, k, f.filter)
				if err != nil {
					t.Fatal(err)
				}
				res, err := cl.Do(ctx, &ansmet.Query{Vector: q, K: k, Route: ansmet.RouteNDP, Filter: f.filter})
				if err != nil || res.Partial || res.Route != ansmet.RouteNDP {
					t.Fatalf("shards=%d %s q%d: route=%v partial=%v err=%v", shards, f.name, qi, res.Route, res.Partial, err)
				}
				if !reflect.DeepEqual(res.Neighbors, want) {
					t.Fatalf("shards=%d %s q%d filtered:\n  cluster  %v\n  unsharded %v", shards, f.name, qi, res.Neighbors, want)
				}
				for _, nn := range res.Neighbors {
					if f.filter != nil && !f.filter(nn.ID) {
						t.Fatalf("shards=%d %s q%d: filtered result %d fails predicate", shards, f.name, qi, nn.ID)
					}
				}
			}
		}
	}
}

// TestClusterSingleShardIdenticalAtServingBeam pins the strongest healthy
// path guarantee available at SERVING beam widths (where multi-shard
// identity is information-theoretically unavailable — the shards traverse
// different graphs): a 1-shard cluster is structurally the same index, so
// the full coordinator path (fan-out, budget carving, remap, merge) must
// be byte-transparent at every ef, not just exhaustive ones.
func TestClusterSingleShardIdenticalAtServingBeam(t *testing.T) {
	p := dataset.ProfileByName("SIFT")
	ds := dataset.Generate(p, 250, 5, 9)
	build := ansmet.Options{Metric: p.Metric, Elem: p.Elem, EfConstruction: 60, Seed: 11}
	db, err := ansmet.New(ds.Vectors, build)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := ansmet.NewCluster(ds.Vectors, ansmet.ClusterOptions{Shards: 1, Build: build, DisableHedging: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for qi, q := range ds.Queries {
		for _, ef := range []int{32, 64, 128} {
			want, err := db.SearchInto(q, 10, ef, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cl.Do(ctx, &ansmet.Query{Vector: q, K: 10, Ef: ef, Route: ansmet.RouteNDP})
			if err != nil {
				t.Fatalf("q%d ef=%d: %v", qi, ef, err)
			}
			if !reflect.DeepEqual(res.Neighbors, want) {
				t.Fatalf("q%d ef=%d: single-shard cluster diverges:\n  cluster  %v\n  unsharded %v",
					qi, ef, res.Neighbors, want)
			}
		}
	}
}

func TestClusterSaveDirLoadRoundTrip(t *testing.T) {
	p := dataset.ProfileByName("SIFT")
	ds := dataset.Generate(p, 150, 3, 44)
	build := ansmet.Options{Metric: p.Metric, Elem: p.Elem, EfConstruction: 40, Seed: 9}
	cl, err := ansmet.NewCluster(ds.Vectors, ansmet.ClusterOptions{
		Shards: 3, Partition: ansmet.PartitionKMeans, Build: build, DisableHedging: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "cluster")
	if err := cl.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	re, err := ansmet.LoadClusterDir(dir, ansmet.ClusterOptions{Build: build, DisableHedging: true})
	if err != nil {
		t.Fatal(err)
	}
	if re.Shards() != cl.Shards() || re.Len() != cl.Len() {
		t.Fatalf("restored cluster shape %d/%d, want %d/%d", re.Shards(), re.Len(), cl.Shards(), cl.Len())
	}
	ctx := context.Background()
	for qi, q := range ds.Queries {
		want, err := cl.Do(ctx, &ansmet.Query{Vector: q, K: 10, Ef: 200, Route: ansmet.RouteNDP})
		if err != nil {
			t.Fatal(err)
		}
		got, err := re.Do(ctx, &ansmet.Query{Vector: q, K: 10, Ef: 200, Route: ansmet.RouteNDP})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Neighbors, want.Neighbors) {
			t.Fatalf("q%d: restored cluster diverges:\n  restored %v\n  original %v", qi, got.Neighbors, want.Neighbors)
		}
	}
	st := re.Stats()
	if st.Shards != 3 || st.Vectors != 150 || st.Partition != "kmeans" || len(st.Shard) != 3 {
		t.Fatalf("restored stats = %+v", st)
	}
}

func TestClusterLoadRejectsCorruptManifest(t *testing.T) {
	p := dataset.ProfileByName("SIFT")
	ds := dataset.Generate(p, 80, 1, 2)
	build := ansmet.Options{Metric: p.Metric, Elem: p.Elem, EfConstruction: 40, Seed: 9}
	cl, err := ansmet.NewCluster(ds.Vectors, ansmet.ClusterOptions{Shards: 2, Build: build})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "cluster")
	if err := cl.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, ansmet.ClusterManifestName)
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}

	// Bit flip → checksum error.
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x40
	if err := os.WriteFile(manifest, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ansmet.LoadClusterDir(dir, ansmet.ClusterOptions{}); !errors.Is(err, ansmet.ErrSnapshotChecksum) {
		t.Fatalf("bit-flipped manifest: err = %v, want ErrSnapshotChecksum", err)
	}

	// Truncation → torn-write error.
	if err := os.WriteFile(manifest, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ansmet.LoadClusterDir(dir, ansmet.ClusterOptions{}); !errors.Is(err, ansmet.ErrSnapshotTruncated) {
		t.Fatalf("truncated manifest: err = %v, want ErrSnapshotTruncated", err)
	}

	// A checksum is not a MAC: a crafted manifest with a valid footer that
	// claims 2^40 vectors and lists one id must be rejected on the count,
	// before Total sizes anything (the parent allocated 1 TiB here and died
	// with "fatal error: runtime: out of memory").
	var crafted bytes.Buffer
	crafted.WriteString("ANSMETCL1\n")
	if err := gob.NewEncoder(&crafted).Encode(struct {
		Magic     string
		Partition int
		Total     int
		IDs       [][]uint32
	}{"ansmet-cluster-v1", 0, 1 << 40, [][]uint32{{0}}}); err != nil {
		t.Fatal(err)
	}
	footer := append([]byte("ANSMETCRC\n"), make([]byte, 12)...)
	binary.LittleEndian.PutUint64(footer[10:], uint64(crafted.Len()))
	binary.LittleEndian.PutUint32(footer[18:], crc32.Checksum(crafted.Bytes(), crc32.MakeTable(crc32.Castagnoli)))
	crafted.Write(footer)
	if err := os.WriteFile(manifest, crafted.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ansmet.LoadClusterDir(dir, ansmet.ClusterOptions{}); err == nil ||
		!strings.Contains(err.Error(), "covers 1 of 1099511627776 ids") {
		t.Fatalf("manifest claiming 2^40 vectors: err = %v, want the count rejection", err)
	}

	// Missing manifest → load fails cleanly (the manifest is the commit
	// point of SaveDir).
	if err := os.Remove(manifest); err != nil {
		t.Fatal(err)
	}
	if _, err := ansmet.LoadClusterDir(dir, ansmet.ClusterOptions{}); err == nil {
		t.Fatal("load without manifest succeeded")
	}
}

// TestClusterSearchRouted: the tiered route on a sharded cluster merges
// per-shard exact top-k answers (budget 1), so the result is byte-identical
// to the unsharded exact search — the cluster-level statement of the
// stage-2 identity invariant. The exact route reaches the same answer
// through each shard's scan, and auto on a healthy idle cluster resolves to
// the quality route — the exact scan, or the tiered route at the budget the
// query states.
func TestClusterSearchRouted(t *testing.T) {
	p := dataset.ProfileByName("DEEP")
	const n = 300
	ds := dataset.Generate(p, n, 6, 21)
	build := ansmet.Options{Metric: p.Metric, Elem: p.Elem, EfConstruction: 60, Seed: 7}
	db, err := ansmet.New(ds.Vectors, build)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, shards := range []int{2, 3} {
		cl, err := ansmet.NewCluster(ds.Vectors, ansmet.ClusterOptions{
			Shards: shards, Build: build, DisableHedging: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range ds.Queries {
			want, _, err := exactSearch(db, q, 10)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []ansmet.Route{ansmet.RouteTiered, ansmet.RouteExact} {
				res, err := cl.Do(ctx, &ansmet.Query{Vector: q, K: 10, Ef: 64, Route: mode})
				if err != nil || res.Route != mode {
					t.Fatalf("shards=%d q%d %v: route=%v err=%v", shards, qi, mode, res.Route, err)
				}
				if !reflect.DeepEqual(res.Neighbors, want) {
					t.Fatalf("shards=%d q%d %v:\n  cluster   %v\n  unsharded %v",
						shards, qi, mode, res.Neighbors, want)
				}
			}
			// Auto on a healthy idle cluster picks the quality route; a stated
			// Budget picks for it (1: the scan; below 1: tiered at that cut).
			for _, c := range []struct {
				budget float64
				route  ansmet.Route
			}{{0, ansmet.RouteExact}, {1, ansmet.RouteExact}, {0.999, ansmet.RouteTiered}} {
				res, err := cl.Do(ctx, &ansmet.Query{Vector: q, K: 10, Ef: 64, Budget: c.budget})
				if err != nil || res.Route != c.route {
					t.Fatalf("shards=%d q%d auto budget=%v: route=%v err=%v", shards, qi, c.budget, res.Route, err)
				}
				if c.route == ansmet.RouteExact && !reflect.DeepEqual(res.Neighbors, want) {
					t.Fatalf("shards=%d q%d auto budget=%v diverged", shards, qi, c.budget)
				}
			}
		}
	}
}

// TestClusterStatsBytesUnchanged pins the JSON of Cluster.Stats — what
// /debug/vars serves under "cluster" — for a fixed 3-shard cluster after a
// scripted query mix, to the bytes recorded at the commit before
// ClusterStats embedded cluster.MetricsSnapshot instead of copying it.
func TestClusterStatsBytesUnchanged(t *testing.T) {
	p := dataset.ProfileByName("DEEP")
	ds := dataset.Generate(p, 300, 6, 21)
	build := ansmet.Options{Metric: p.Metric, Elem: p.Elem, EfConstruction: 60, Seed: 7}
	cl, err := ansmet.NewCluster(ds.Vectors, ansmet.ClusterOptions{Shards: 3, Build: build, DisableHedging: true})
	if err != nil {
		t.Fatal(err)
	}
	even := func(id uint32) bool { return id%2 == 0 }
	for _, q := range ds.Queries {
		for _, sq := range []ansmet.Query{
			{Vector: q, K: 10, Route: ansmet.RouteHost},
			{Vector: q, K: 5, Route: ansmet.RouteExact},
			{Vector: q, K: 3, Budget: 1},
			{Vector: q, K: 10, Route: ansmet.RouteHost, Filter: even},
			{Vector: q, K: 0}, // rejected: counts a query, calls no shard
		} {
			cl.Do(context.Background(), &sq)
		}
	}
	for _, c := range []struct {
		name string
		v    any
		want string
	}{
		{"Stats", cl.Stats(), "e256d82840040d97df2a1eff1b4a1c59406c8a73e3d182b300e8de4c97bbb25b"},
		{"/debug/vars", map[string]any{"cluster": cl.Stats()}, "65c8d67e21060625c0a788a97e2d8b6fe9e84d4a432b6272671d7295f994f155"},
	} {
		b, err := json.Marshal(c.v)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != c.want {
			t.Errorf("%s: sha256 %s, want %s\n%s", c.name, got, c.want, b)
		}
	}
}
