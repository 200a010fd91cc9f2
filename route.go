package ansmet

import (
	"ansmet/internal/core"
	"ansmet/internal/engine"
)

// This file names the routes a Query can take and exposes the router's
// counters; route resolution and dispatch live in query.go.

// Route identifies a whole-query execution path; see internal/engine.
type Route = engine.Route

// Route values. RouteAuto lets the router pick per query from deadline
// slack and load; the rest force a path. RouteHost and
// RouteNDP are the same beam search over two compare engines (row-major
// vectors with the SIMD kernels; the bit-plane early-termination model),
// RouteExact and RouteTiered the two ways to an exact answer (a SIMD scan
// of every row; bound-first/exact-rerank at budget 1).
const (
	RouteAuto   = engine.RouteAuto
	RouteNDP    = engine.RouteNDP
	RouteTiered = engine.RouteTiered
	RouteExact  = engine.RouteExact
	RouteHost   = engine.RouteHost
)

// ParseRoute maps a wire mode string ("auto", "ndp", "tiered", "exact",
// "host") to a Route.
func ParseRoute(s string) (Route, error) { return engine.ParseRoute(s) }

// TieredStats reports one tiered query's work split (see internal/core).
type TieredStats = core.TieredStats

// RouterStats is a snapshot of the database router's counters.
type RouterStats = engine.RouterSnapshot

// RouterStats exposes the router's per-route counters and cost estimates.
func (db *Database) RouterStats() RouterStats { return db.router.Snapshot() }
