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
// dependency closure holds none of the paper's timing and fault model — the
// replay, its energy and polling models, the fault injector and the NDP
// instruction protocol — and the functional view (internal/core) imports
// none of the simulator's packages, so nothing can pull them back in
// through it.
func TestServerLinksNoSimulator(t *testing.T) {
	model := []string{"sim", "energy", "polling", "fault", "ndp"}
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
	imports := map[string]bool{}
	for _, p := range goList(t, "-f", `{{join .Imports " "}}`, "ansmet/internal/core") {
		imports[p] = true
	}
	for _, name := range []string{"sim", "polling", "fault"} {
		if p := "ansmet/internal/" + name; imports[p] {
			t.Errorf("internal/core imports %s", p)
		}
	}
}
