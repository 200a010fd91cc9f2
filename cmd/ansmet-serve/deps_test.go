package main

import (
	"os/exec"
	"strings"
	"testing"
)

// goList runs `go list` with args in this package's directory and returns
// its output lines. The module has no requirements, so this reads nothing
// but the tree.
func goList(t *testing.T, args ...string) []string {
	t.Helper()
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	out, err := exec.Command(gobin, append([]string{"list"}, args...)...).Output()
	if err != nil {
		t.Fatalf("go list %v: %v", args, err)
	}
	return strings.Fields(string(out))
}

// TestServerLinksNoSimulator pins the product/model split: the server's
// dependency closure holds none of the paper's platform model — the replay,
// its energy and polling models, the NDP instruction protocol, the DDR5 geometry and the rank partitioning over it, the
// adaptive-precision depth map and the query traces — and the functional
// view (internal/core) and the index (internal/hnsw) import none of the
// model's packages, so nothing can pull them back in through them.
func TestServerLinksNoSimulator(t *testing.T) {
	model := []string{"sim", "energy", "polling", "ndp", "dram", "partition", "precision", "trace"}
	deps := map[string]bool{}
	for _, p := range goList(t, "-deps", ".") {
		deps[p] = true
	}
	if !deps["ansmet/internal/core"] {
		t.Fatalf("go list -deps names no ansmet/internal/core: %v", deps)
	}
	for _, name := range model {
		if p := "ansmet/internal/" + name; deps[p] {
			t.Errorf("ansmet-serve links %s", p)
		}
	}
	for pkg, forbidden := range map[string][]string{
		"core": {"sim", "polling", "dram", "partition", "precision"},
		"hnsw": {"trace"},
	} {
		imports := map[string]bool{}
		for _, p := range goList(t, "-f", `{{join .Imports " "}}`, "ansmet/internal/"+pkg) {
			imports[p] = true
		}
		for _, name := range forbidden {
			if p := "ansmet/internal/" + name; imports[p] {
				t.Errorf("internal/%s imports %s", pkg, p)
			}
		}
	}
}
