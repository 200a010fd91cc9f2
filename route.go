package ansmet

import "ansmet/internal/engine"

// This file names the routes a Query can take and exposes the router's
// counters; route resolution and dispatch live in query.go.

// Route identifies a whole-query execution path; see internal/engine.
type Route = engine.Route

// Route values. RouteAuto lets the router pick per query from deadline
// slack and load; the rest force a path: RouteHost the beam search over
// row-major vectors with the SIMD kernels, RouteExact a SIMD scan of every
// row. The NDP model's bit-plane beam and tiered scan are the model's
// (Database.NewSystem), not routes of a served database.
const (
	RouteAuto  = engine.RouteAuto
	RouteExact = engine.RouteExact
	RouteHost  = engine.RouteHost
)

// ParseRoute maps a wire mode string ("auto", "exact", "host") to a Route.
func ParseRoute(s string) (Route, error) { return engine.ParseRoute(s) }

// RouterStats is a snapshot of the database router's counters.
type RouterStats = engine.RouterSnapshot

// RouterStats exposes the router's per-route counters and cost estimates.
func (db *Database) RouterStats() RouterStats { return db.router.Snapshot() }
