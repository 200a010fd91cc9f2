package engine

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"ansmet/internal/stats"
)

// Route identifies one whole-query execution path. The Router moves entire
// queries between the host beam and the exact scan, based on deadline slack
// and load.
type Route int32

const (
	// RouteAuto lets the router decide.
	RouteAuto Route = iota
	// RouteExact is the exact scan over row-major vectors with the SIMD
	// kernels — correct regardless of the bound machinery's health.
	RouteExact
	// RouteHost is the HNSW beam search with the host compare engine
	// (row-major vectors, SIMD kernels) under it.
	RouteHost
	// NumRoutes sizes per-route tables; every Route below it has a name.
	NumRoutes
)

// BeamBatch is the number of candidates the beam search pops per base-layer
// hop (delayed synchronization). The host beam and the NDP model's default
// configuration (core.DefaultSystemConfig) both read it, so the served beam
// and the modelled one are the same traversal.
const BeamBatch = 8

// routeNames is the single list of routes: String, ParseRoute (and so the
// serve layer's mode validation, its 400 text and its per-route counters)
// all read it.
var routeNames = [NumRoutes]string{"auto", "exact", "host"}

// String names the route (stable, used as wire values by the serve layer).
func (r Route) String() string {
	if r < 0 || r >= NumRoutes {
		return fmt.Sprintf("Route(%d)", int(r))
	}
	return routeNames[r]
}

// ParseRoute maps a wire mode string to a Route; "auto" engages the
// router. The error of an unknown mode lists the known ones.
func ParseRoute(s string) (Route, error) {
	for r, name := range routeNames {
		if s == name {
			return Route(r), nil
		}
	}
	return RouteAuto, fmt.Errorf("engine: unknown route mode %q (want one of %s)", s, strings.Join(routeNames[:], ", "))
}

// NoDeadline is the Decide slack sentinel for a query without a deadline.
const NoDeadline = time.Duration(-1)

// The routing policy's constants (the third, the cost model's smoothing
// factor, is stats.EWMA's).
const (
	// safetyFactor: the exact scan is chosen only when the deadline slack
	// covers safetyFactor× its EWMA cost estimate.
	safetyFactor = 2
	// loadHighWater is the in-flight query count at which auto routing
	// sheds to the cheapest path regardless of slack.
	loadHighWater = 64
)

// Router decides per-query routes and tracks per-route cost and counters.
// All methods are safe for concurrent use and allocation-free.
type Router struct {
	inflight atomic.Int64
	routed   [NumRoutes]atomic.Uint64
	costNs   [NumRoutes]stats.EWMA // cost per route, ns; 0 = no observation yet
}

// NewRouter builds a router. Decide chooses between the two legs every
// database serves: the cheap approximate host beam and the exact scan.
func NewRouter() *Router { return &Router{} }

// Begin marks one routed query in flight.
func (r *Router) Begin() { r.inflight.Add(1) }

// End releases Begin.
func (r *Router) End() { r.inflight.Add(-1) }

// InFlight reports the current routed-query concurrency.
func (r *Router) InFlight() int64 { return r.inflight.Load() }

// Decide picks a concrete route for an auto query. slack is the remaining
// deadline budget (NoDeadline when the query has none).
//
// Policy: the router picks the highest-quality route that fits: the exact
// scan when the slack covers safetyFactor× its recent cost — or
// unconditionally when there is no deadline — and the host beam under
// deadline pressure or load.
func (r *Router) Decide(slack time.Duration) Route {
	if r.inflight.Load() >= loadHighWater {
		return RouteHost
	}
	if slack < 0 {
		return RouteExact
	}
	est := float64(r.CostNs(RouteExact))
	if est == 0 || float64(slack) >= safetyFactor*est {
		return RouteExact
	}
	return RouteHost
}

// Record counts one query executed on route.
func (r *Router) Record(route Route) {
	if route > RouteAuto && route < NumRoutes {
		r.routed[route].Add(1)
	}
}

// Observe folds one query's duration into route's EWMA cost estimate. A
// sample is clamped to at least 1 ns so that an estimate of 0 keeps meaning
// "no observation yet".
func (r *Router) Observe(route Route, d time.Duration) {
	if route <= RouteAuto || route >= NumRoutes {
		return
	}
	r.costNs[route].Fold(math.Max(float64(d.Nanoseconds()), 1))
}

// CostNs returns route's EWMA cost estimate in whole nanoseconds (0 before
// the first observation).
func (r *Router) CostNs(route Route) uint64 {
	if route <= RouteAuto || route >= NumRoutes {
		return 0
	}
	return uint64(r.costNs[route].Value())
}

// RouterSnapshot is a plain-value copy of the router's counters.
type RouterSnapshot struct {
	Exact, Host uint64 // queries executed per route
	InFlight    int64
	CostNs      map[string]uint64 // per-route EWMA cost (observed routes only)
}

// Snapshot copies the current counters.
func (r *Router) Snapshot() RouterSnapshot {
	s := RouterSnapshot{
		Exact:    r.routed[RouteExact].Load(),
		Host:     r.routed[RouteHost].Load(),
		InFlight: r.inflight.Load(),
		CostNs:   map[string]uint64{},
	}
	for route := RouteAuto + 1; route < NumRoutes; route++ {
		if c := r.CostNs(route); c != 0 {
			s.CostNs[route.String()] = c
		}
	}
	return s
}
