// Command ansmet-chaos runs the chaos scenarios: precision against the
// simulated NDP platform — adaptive mixed-precision search degrades under a
// rank crash exactly like fixed-depth search (DESIGN.md, "Adaptive
// mixed-precision search") — and the serving ones (serve, cluster, router)
// against the database, the HTTP stack and the sharded coordinator. The
// fault model's own invariants (DESIGN.md, "Fault model and degradation
// semantics") are internal/fault's tests.
//
// Usage:
//
//	ansmet-chaos [-scenario all|precision|serve|cluster|router] [-n 400] [-seed 99]
//
// The process exits non-zero if any invariant is violated.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	scenario := flag.String("scenario", "all", "chaos scenario: all, precision, serve, cluster, router")
	n := flag.Int("n", 400, "dataset size")
	seed := flag.Uint64("seed", 99, "fault schedule seed")
	flag.Parse()

	switch *scenario {
	case "all", "precision", "serve", "cluster", "router":
	default:
		fmt.Fprintf(os.Stderr, "unknown -scenario %q (want all, precision, serve, cluster or router)\n", *scenario)
		os.Exit(2)
	}
	if *n < 50 {
		fmt.Fprintf(os.Stderr, "need -n >= 50 (got -n %d)\n", *n)
		os.Exit(2)
	}

	failed := false
	run := func(name string, fn func() error) {
		fmt.Printf("=== scenario: %s ===\n", name)
		if err := fn(); err != nil {
			fmt.Printf("FAIL %s: %v\n\n", name, err)
			failed = true
			return
		}
		fmt.Printf("PASS %s\n\n", name)
	}

	sel := *scenario
	if sel == "all" || sel == "precision" {
		run("precision (adaptive mixed-precision model under rank crash)", func() error {
			return runPrecisionSoak(*n, *seed)
		})
	}
	if sel == "all" || sel == "serve" {
		run("serve (HTTP soak: overload, cancels, garbage, panics, drain)", func() error {
			return runServeSoak(*n, *seed)
		})
	}
	if sel == "all" || sel == "cluster" {
		run("cluster (sharded soak: crashed + slow + flapping shards)", func() error {
			return runClusterSoak(*n, *seed)
		})
	}
	if sel == "all" || sel == "router" {
		run("router (deadline pressure: auto routing between exact and the host beam)", func() error {
			return runRouterSoak(*n)
		})
	}
	if failed {
		os.Exit(1)
	}
}
