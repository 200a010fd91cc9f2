package main

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ansmet"
	"ansmet/internal/dataset"
	"ansmet/internal/serve"
)

// TestOpenClusterDir: -cluster-dir restores when the directory holds a
// manifest, and builds and saves otherwise — into a directory that exists
// but is empty, and over one that holds shard files but no manifest, what a
// save that crashed before its last write leaves.
func TestOpenClusterDir(t *testing.T) {
	p := dataset.ProfileByName("SIFT")
	dir := t.TempDir()
	open := func(label string) ansmet.ClusterStats {
		t.Helper()
		cl, err := openCluster("", p, "hash", dir, 200, 2, 0, true)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if _, err := os.Stat(filepath.Join(dir, ansmet.ClusterManifestName)); err != nil {
			t.Fatalf("%s: no manifest after opening: %v", label, err)
		}
		return cl.Stats()
	}

	built := open("empty directory")
	if built.Shards != 2 || built.Vectors != 200 {
		t.Fatalf("built %d shards, %d vectors; want 2, 200", built.Shards, built.Vectors)
	}
	if restored := open("restore"); !reflect.DeepEqual(restored, built) {
		t.Fatalf("restored stats %+v, built %+v", restored, built)
	}

	if err := os.Remove(filepath.Join(dir, ansmet.ClusterManifestName)); err != nil {
		t.Fatal(err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) == 0 {
		t.Fatalf("no shard files left beside the removed manifest: %v, %v", entries, err)
	}
	if rebuilt := open("shard files, no manifest"); !reflect.DeepEqual(rebuilt, built) {
		t.Fatalf("rebuilt stats %+v, built %+v", rebuilt, built)
	}
}

// TestWireSearch: the table by which wireSearch resolves a request's mode
// and recall_target to the route of the Query it runs. A target with no mode
// or with "auto" is met by the exact scan; a named mode runs that route; with
// neither, the host beam runs; the NDP model's routes are not served.
func TestWireSearch(t *testing.T) {
	var cfg serve.Config
	var got *ansmet.Query
	wireSearch(&cfg, func(ctx context.Context, q *ansmet.Query) (serve.Outcome, error) {
		got = q
		return serve.Outcome{Route: q.Route.String()}, nil
	})
	for _, c := range []struct {
		mode   string
		target float64
		want   ansmet.Route
	}{
		{"", 0, ansmet.RouteHost},
		{"", 0.5, ansmet.RouteExact},
		{"", 1, ansmet.RouteExact},
		{"auto", 0, ansmet.RouteAuto},
		{"auto", 0.5, ansmet.RouteExact},
		{"host", 0, ansmet.RouteHost},
		{"host", 0.5, ansmet.RouteHost},
		{"exact", 0, ansmet.RouteExact},
	} {
		got = nil
		out, err := cfg.SearchPrecision(context.Background(), []float32{1, 2}, 3, 8, c.mode, c.target)
		if err != nil || got == nil || got.Route != c.want || out.Route != c.want.String() {
			t.Fatalf("mode %q target %v: ran %+v (err %v), want %v", c.mode, c.target, got, err, c.want)
		}
		if got.K != 3 || got.Ef != 8 || len(got.Vector) != 2 {
			t.Fatalf("mode %q target %v: query %+v does not carry the request", c.mode, c.target, got)
		}
	}
	for _, mode := range []string{"ndp", "tiered"} {
		got = nil
		_, err := cfg.SearchPrecision(context.Background(), []float32{1, 2}, 3, 8, mode, 0)
		if err == nil || got != nil || !strings.Contains(err.Error(), "auto, exact, host") {
			t.Fatalf("mode %q: err %v, ran %+v; want an error naming auto, exact, host", mode, err, got)
		}
	}
}
