// Package core is the functional view of ANSMET — the paper's primary
// contribution. It composes the early-termination storage engine
// (internal/bitplane + internal/prefixelim) and the sampling-based layout
// optimizer (internal/layout) over a row slab and its HNSW graph into the
// evaluated design points of §6, CPU-Base through NDP-ETOpt, and makes the
// engines that search them. Where the platform puts the vectors and what
// it costs are the simulator's (internal/sim), built over this view.
package core

import "fmt"

// Design enumerates the evaluated design points (paper §6).
type Design int

const (
	// CPUBase runs everything on the host with plain layout.
	CPUBase Design = iota
	// CPUET adds hybrid partial-dimension/bit ET on the host with the
	// simple heuristic layout.
	CPUET
	// CPUETOpt adds dual-granularity fetch and common-prefix elimination
	// on the host.
	CPUETOpt
	// NDPBase offloads distance comparison to the NDP units, plain layout.
	NDPBase
	// NDPDimET is the prior partial-dimension-only ET scheme on NDP.
	NDPDimET
	// NDPBitET is the BitNN-style fixed 1-bit-step ET scheme on NDP.
	NDPBitET
	// NDPET is hybrid ET with the simple heuristic layout (4-bit chunks
	// for integers, 8-bit for floats).
	NDPET
	// NDPETDual adds sampling-optimized dual-granularity fetch.
	NDPETDual
	// NDPETOpt adds outlier-aware common-prefix elimination — full ANSMET.
	NDPETOpt
)

// AllDesigns lists every design in the paper's presentation order.
var AllDesigns = []Design{
	CPUBase, CPUET, CPUETOpt, NDPBase, NDPDimET, NDPBitET, NDPET, NDPETDual, NDPETOpt,
}

var designNames = [...]string{
	"CPU-Base", "CPU-ET", "CPU-ETOpt", "NDP-Base",
	"NDP-DimET", "NDP-BitET", "NDP-ET", "NDP-ET+Dual", "NDP-ETOpt",
}

// String returns the paper's name for the design.
func (d Design) String() string {
	if d < 0 || int(d) >= len(designNames) {
		return fmt.Sprintf("Design(%d)", int(d))
	}
	return designNames[d]
}

// UsesNDP reports whether distance comparison runs on the NDP units.
func (d Design) UsesNDP() bool { return d >= NDPBase }

// UsesET reports whether any early termination is enabled.
func (d Design) UsesET() bool {
	return d != CPUBase && d != NDPBase
}

// UsesPrefixElim reports whether common-prefix elimination is enabled.
func (d Design) UsesPrefixElim() bool { return d == NDPETOpt || d == CPUETOpt }
