package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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

// TestInternalExportsHaveCallers keeps internal/ free of exported functions
// and methods that only tests call: such a name is moved beside its test,
// unexported, or deleted. It parses every non-test .go file of the module
// and of bench/ (which compiles against internal names) and fails on an
// exported func or method declared under internal/ whose name appears as
// an identifier in no non-test file except at its own declaration. The
// scan is by name only, so a dead method that shares its name with a live
// identifier, or with another declaration, escapes it. An allowlisted name
// that is gone or has gained a caller fails too, so the list stays short.
func TestInternalExportsHaveCallers(t *testing.T) {
	// Exported on purpose with no non-test caller, each with its reason.
	allowed := map[string]bool{
		// Transform's inverse: the reference the bit-plane round-trip test
		// and fuzz target hold the encoder to.
		"bitplane.Layout.Reconstruct": true,
		// The scalar block sum: the reference the vecmath, bitplane and
		// prefixelim tests pin every kernel and bounder against.
		"vecmath.BlockedSum": true,
		// The host's QSHR release, an operation of the §5.2 protocol.
		"ndp.Unit.Free": true,
		// leakcheck is a test-helper package: only tests import it.
		"leakcheck.Baseline": true,
		"leakcheck.SettleT":  true,
		// The oracle internal/sim's TestReplicationWiredIntoSystem checks
		// the model's top-layer replication against.
		"partition.Map.ReplicatedCount": true,
	}
	root := filepath.Join("..", "..")
	type decl struct {
		key, name string
		pos       token.Position
	}
	var decls []decl
	seen := map[string]int{} // identifier occurrences by name, declarations included
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(filepath.ToSlash(rel), "internal/")
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok || !internal || !fd.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "." + fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				key = f.Name.Name + "." + recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, decl{key, fd.Name.Name, fset.Position(fd.Name.Pos())})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				seen[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported declarations under internal/")
	}
	for _, d := range decls {
		if seen[d.name] > 1 {
			continue
		}
		if allowed[d.key] {
			delete(allowed, d.key)
		} else {
			t.Errorf("%s: %s has no non-test caller: delete it, or move it beside its test unexported", d.pos, d.key)
		}
	}
	for key := range allowed {
		t.Errorf("allowlisted %s is gone or has a caller: drop it from the list", key)
	}
}

// recvTypeName is the type name of a method receiver: T for T, *T, T[P]
// and *T[P].
func recvTypeName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
