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
		want, err := cl.Do(ctx, &ansmet.Query{Vector: q, K: 10, Ef: 200, Route: ansmet.RouteHost})
		if err != nil {
			t.Fatal(err)
		}
		got, err := re.Do(ctx, &ansmet.Query{Vector: q, K: 10, Ef: 200, Route: ansmet.RouteHost})
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

// TestClusterStatsBytesUnchanged pins the JSON of Cluster.Stats — what
// /debug/vars serves under "cluster" — for a fixed 3-shard cluster after a
// scripted query mix, to the bytes recorded at the commit before
// ClusterStats embedded cluster.MetricsSnapshot instead of copying it, less
// the fields Stats no longer carries, all of them always zero here. With the
// three adaptive-precision ones ("RecallTarget":0,"PrecisionClusters":0,
// "MeanDepthLines":0) put back after each shard's PreprocessSeconds, the two
// documents hash to cae44d96… and 26569510…; with the six resilience ones
// also put back after each shard's WALReplayed, to e256d828… and 65c8d67e….
// The current pins drop each shard's design and model facts; with
// "Design":8,"PrefixBits":0,"Outliers":0,"LinesPerVector":0,
// "SpaceSavedPercent":0,"PreprocessSeconds":0 put back after each shard's
// "Dim", the documents hash to the previous pins, 17aeda41… and e6cde522….
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
			{Vector: q, K: 3, Route: ansmet.RouteExact},
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
		{"Stats", cl.Stats(), "23fc298c71e8cf5e85bb2f405f07bf14b0203ce1fc6d3bfd5a3fbbf9d9141155"},
		{"/debug/vars", map[string]any{"cluster": cl.Stats()}, "45d9371e5beb9c4162c0607e2ca070299f65e5041ae1ab2d9ec41ac4c1ea2b3e"},
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
