package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ansmet"
	"ansmet/internal/dataset"
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
