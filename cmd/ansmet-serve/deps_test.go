package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"strconv"
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
// model's packages, and the served cluster build (internal/kmeans) none of
// the bit-plane store's, so nothing can pull them back in through them.
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
		"core":   {"sim", "polling", "dram", "partition", "precision"},
		"hnsw":   {"trace"},
		"kmeans": {"bitplane", "layout", "prefixelim", "core"},
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

// TestRootUsesModelEntryPointsOnly pins the served/model layering from the
// other side: the root package's non-test code names internal/core only
// for the model's entry points (NewSystem and its config, the design
// names, and the System and TieredStats that compat.go hands bench/), so
// served code — the exact scan, the tombstones — cannot drift back into
// the model.
func TestRootUsesModelEntryPointsOnly(t *testing.T) {
	allowed := map[string]bool{"NewSystem": true, "SystemConfig": true, "DefaultSystemConfig": true,
		"System": true, "Design": true, "NDPETOpt": true, "TieredStats": true}
	files, err := filepath.Glob(filepath.Join("..", "..", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no root package files: %v", err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		name := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "ansmet/internal/core" {
				name = "core"
				if imp.Name != nil {
					name = imp.Name.Name
				}
			}
		}
		if name == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == name && !allowed[sel.Sel.Name] {
					t.Errorf("%s: core.%s is not a model entry point", fset.Position(sel.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	}
}
