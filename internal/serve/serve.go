package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"ansmet/internal/engine"
	"ansmet/internal/hnsw"
	"ansmet/internal/stats"
)

// SearchFunc is the plain search hook, kept beside PrecisionFunc for one
// reason: bench/probe.go assigns Config.Search by this signature. A server
// should wire SearchPrecision. Cancellation and deadline must propagate
// cooperatively into the traversal (the ansmet SearchEfCtx family does). On
// context expiry a hook may return partial results alongside an error
// matching context.DeadlineExceeded / context.Canceled via errors.Is.
//
// Ownership, for this and every other hook that takes a vector
// (PrecisionFunc, UpsertFunc): q is the callee's. serve allocates it per
// request and never reads, writes or reuses it after the call, so a hook may
// retain it past its return — a sharded backend's abandoned stragglers do.
type SearchFunc func(ctx context.Context, q []float32, k, ef int) ([]hnsw.Neighbor, error)

// Outcome is the degradation-aware result a PrecisionFunc returns: the
// merged neighbors plus whether any backend shard was missing from the
// merge (Partial) and the human-readable per-shard fault strings, so the
// HTTP layer can surface partial results honestly (X-ANSMET-Partial
// header, "partial"/"faults" response fields) instead of presenting a
// degraded answer as a complete one. A plain SearchFunc is the degenerate always-complete case.
type Outcome struct {
	Neighbors []hnsw.Neighbor
	Partial   bool
	Faults    []string
	// Route names the query path actually taken (an engine.Route name:
	// "host", "exact") when the backend reports one; empty
	// otherwise. Echoed to clients in the RouteHeader and counted per route
	// in /debug/vars.
	Route string
}

// PrecisionFunc is the general search hook; it can serve every request.
// mode is the request's "mode" — empty, or one of the engine.Route names
// ("auto", "host", "exact"), pre-validated by the handler through
// engine.ParseRoute — and recallTarget its "recall_target", 0 when absent
// and otherwise pre-validated to (0, 1]. The backend resolves the pair to a
// query plan (for the ansmet Database: the route, the exact scan meeting any
// target); the Outcome's Route field should report the path actually taken. q is the callee's (see SearchFunc).
type PrecisionFunc func(ctx context.Context, q []float32, k, ef int, mode string, recallTarget float64) (Outcome, error)

// PartialHeader marks responses assembled from a degraded backend (one or
// more shards missing from the merge). Clients that require complete
// answers should retry on it; clients that prefer fast approximate answers
// can accept the body as-is.
const PartialHeader = "X-ANSMET-Partial"

// RouteHeader names the query path a search actually took ("host",
// "exact"), set whenever the backend reports one — with or without
// a "mode" in the request, so which engine answered shows in `curl -i`.
// Clients using "mode":"auto" read it to learn what the router decided.
const RouteHeader = "X-ANSMET-Route"

// Config wires a Server.
type Config struct {
	// Search and SearchPrecision execute queries; one of them is required.
	// A request with neither "mode" nor "recall_target" goes to Search when
	// it is set, else to SearchPrecision with mode "" and target 0; a
	// request naming either goes to SearchPrecision, and gets HTTP 400 on a
	// server without it.
	Search          SearchFunc
	SearchPrecision PrecisionFunc
	// Upsert, when set, enables POST /v1/upsert (insert or replace a
	// vector); Delete enables POST /v1/delete. Unset hooks leave their
	// endpoint unregistered — a read-only server 404s mutation traffic.
	// Mutations share the search admission controller and drain behavior.
	Upsert UpsertFunc
	Delete DeleteFunc
	// ExtraVars, when set, contributes additional top-level sections to
	// /debug/vars (e.g. cluster shard health). Keys must not collide with
	// the built-in "serve"/"admission"/"goroutines"/"draining" sections;
	// colliding keys are ignored.
	ExtraVars func() map[string]any
	// BadRequest classifies searcher errors that should map to HTTP 400
	// (input validation) rather than 500. Nil treats every non-context
	// searcher error as internal.
	BadRequest func(error) bool

	// Admission bounds accepted work on /v1/search.
	Admission AdmissionConfig

	// DefaultTimeout is the per-request search deadline when the request
	// doesn't name one (default 2s); MaxTimeout caps client-requested
	// deadlines (default 10s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// MaxBodyBytes bounds the request body (default 1 MiB): a body is read
	// whole, inside its admission slot, into a buffer that never grows past
	// this, and one byte more is a 413 whatever the bytes before it hold.
	MaxBodyBytes int64
}

const (
	// defaultK is the k of a search request that names none.
	defaultK = 10
	// maxK and maxEf bound a search request's shape: a k or a beam past
	// them is a 400, so no request can ask for an unbounded result or
	// traversal.
	maxK  = 1024
	maxEf = 8192
	// auxConcurrency caps in-flight requests per auxiliary endpoint
	// (health/ready/vars). Search concurrency is governed by Admission.
	auxConcurrency = 64
)

func (c Config) withDefaults() Config {
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	return c
}

// Metrics are the server's cumulative counters, exposed on /debug/vars.
type Metrics struct {
	Requests      atomic.Int64 // /v1/search requests received
	OK            atomic.Int64 // 200s served
	BadRequests   atomic.Int64 // 400/413s
	Shed          atomic.Int64 // 429s (rate or queue)
	Timeouts      atomic.Int64 // 504s (search deadline)
	ClientCancels atomic.Int64 // client went away mid-request
	Draining      atomic.Int64 // 503s during drain
	Panics        atomic.Int64 // handler panics contained to 500
	Internal      atomic.Int64 // other 500s
	InFlight      atomic.Int64 // searches running right now
	Partials      atomic.Int64 // 200s served with a degraded (partial) merge

	// Routed counts searches per route, indexed by the engine.Route the
	// backend's Outcome.Route named; /debug/vars lists them by route name.
	Routed [engine.NumRoutes]atomic.Int64

	// RecallTargeted counts requests that carried an explicit
	// recall_target.
	RecallTargeted atomic.Int64

	// Upserts and Deletes count acknowledged mutations (200s on
	// /v1/upsert and /v1/delete); failed or shed mutations land in the
	// shared error counters above.
	Upserts atomic.Int64
	Deletes atomic.Int64

	// WireFallbacks counts /v1/search and /v1/upsert bodies the one-pass
	// recogniser declined and encoding/json decoded instead, successfully or
	// not: a server whose clients all send non-canonical bodies shows here.
	WireFallbacks atomic.Int64
}

// countRoute bumps the counter for a reported route name; names engine
// does not list are ignored.
func (m *Metrics) countRoute(route string) {
	if r, err := engine.ParseRoute(route); err == nil {
		m.Routed[r].Add(1)
	}
}

// SearchRequest is the /v1/search JSON body.
type SearchRequest struct {
	Query []float32 `json:"query"`
	K     int       `json:"k,omitempty"`
	Ef    int       `json:"ef,omitempty"`
	// TimeoutMs overrides the server's default per-request deadline,
	// capped at Config.MaxTimeout.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Mode selects the query execution path: "auto" (deadline-aware
	// routing), "host" or "exact". Empty uses the server's default path.
	// Requires Config.SearchPrecision.
	Mode string `json:"mode,omitempty"`
	// RecallTarget, in (0, 1], states the quality wanted, where 1 is exact.
	// Requires Config.SearchPrecision. 0 (absent) uses the server's default.
	RecallTarget float64 `json:"recall_target,omitempty"`
}

// SearchResult is one neighbor in the response.
type SearchResult struct {
	ID   uint32  `json:"id"`
	Dist float64 `json:"dist"`
}

// SearchResponse is the /v1/search JSON response. Partial marks results
// that are not the complete answer — cut short by the deadline (HTTP 504
// with a usable prefix) or merged from a degraded shard fan-out (HTTP 200
// with the X-ANSMET-Partial header). Faults lists the per-shard failures
// behind a degraded merge.
type SearchResponse struct {
	Results []SearchResult `json:"results"`
	Partial bool           `json:"partial,omitempty"`
	Faults  []string       `json:"faults,omitempty"`
	Error   string         `json:"error,omitempty"`
}

// Server is the transport-agnostic ANSMET serving core: an http.Handler
// plus the drain/cancel lifecycle. Mount Handler() on any net/http server
// (or call it directly in tests via httptest).
type Server struct {
	cfg Config
	adm *Admission
	mux *http.ServeMux

	metrics  Metrics
	draining atomic.Bool

	// jitterSeq drives the deterministic Retry-After jitter sequence (a
	// splitmix64 walk — no locking, no global rand).
	jitterSeq atomic.Uint64

	// baseCtx is cancelled by HardCancel: every in-flight search's context
	// is tied to it, so a drain that overruns its deadline can abort the
	// stragglers through the cooperative-cancellation plumbing.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	start time.Time
}

// New builds a Server. One of Config.Search or Config.SearchPrecision is
// required.
func New(cfg Config) (*Server, error) {
	if cfg.Search == nil && cfg.SearchPrecision == nil {
		return nil, errors.New("serve: Config.Search or Config.SearchPrecision is required")
	}
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		adm:        NewAdmission(cfg.Admission),
		mux:        http.NewServeMux(),
		baseCtx:    ctx,
		baseCancel: cancel,
		start:      time.Now(),
	}
	s.mux.HandleFunc("POST /v1/search", s.handleSearch)
	if cfg.Upsert != nil {
		s.mux.HandleFunc("POST /v1/upsert", s.handleUpsert)
	}
	if cfg.Delete != nil {
		s.mux.HandleFunc("POST /v1/delete", s.handleDelete)
	}
	s.mux.HandleFunc("GET /v1/health", limitConcurrency(auxConcurrency, s.handleHealth))
	s.mux.HandleFunc("GET /v1/ready", limitConcurrency(auxConcurrency, s.handleReady))
	s.mux.HandleFunc("GET /debug/vars", limitConcurrency(auxConcurrency, s.handleVars))
	return s, nil
}

// Handler returns the root handler with panic containment applied.
func (s *Server) Handler() http.Handler { return s.recoverWrap(s.mux) }

// Metrics exposes the live counters (reads are atomic).
func (s *Server) Metrics() *Metrics { return &s.metrics }

// Admission exposes the admission controller (for stats).
func (s *Server) Admission() *Admission { return s.adm }

// Drain flips the server into draining mode: /v1/ready turns 503 (so load
// balancers stop routing here) and new /v1/search requests are refused
// with 503 while in-flight ones run to completion. Call before
// http.Server.Shutdown.
func (s *Server) Drain() { s.draining.Store(true) }

// HardCancel aborts every in-flight search through the cooperative
// cancellation plumbing. Call when the drain deadline has passed and
// stragglers must stop now.
func (s *Server) HardCancel() { s.baseCancel() }

// --- middleware ---------------------------------------------------------

// statusRecorder tracks whether a handler already wrote headers, so the
// panic recovery knows if a 500 can still be sent.
type statusRecorder struct {
	http.ResponseWriter
	wrote bool
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.wrote = true
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	sr.wrote = true
	return sr.ResponseWriter.Write(p)
}

// recoverWrap contains handler panics: the connection gets a 500 (when
// headers haven't been sent yet) and the process survives: a panic costs
// the request that raised it, never the server or the other requests in
// flight.
func (s *Server) recoverWrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sr := &statusRecorder{ResponseWriter: w}
		defer func() {
			if p := recover(); p != nil {
				s.metrics.Panics.Add(1)
				if !sr.wrote {
					writeJSON(sr, http.StatusInternalServerError,
						SearchResponse{Error: "internal error"})
				}
			}
		}()
		next.ServeHTTP(sr, r)
	})
}

// limitConcurrency is the per-endpoint concurrency cap for the auxiliary
// endpoints: excess concurrent calls get an immediate 429 instead of
// piling onto the server.
func limitConcurrency(n int, h http.HandlerFunc) http.HandlerFunc {
	sem := make(chan struct{}, n)
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case sem <- struct{}{}:
			defer func() { <-sem }()
			h(w, r)
		default:
			w.Header().Set("Retry-After", "1")
			http.Error(w, "too many concurrent requests", http.StatusTooManyRequests)
		}
	}
}

// --- handlers -----------------------------------------------------------

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	buf, release := s.admit(w, r, &req)
	if buf == nil {
		return
	}
	defer release()
	defer putBuf(buf)

	k := req.K
	if k == 0 {
		k = defaultK
	}
	ef := req.Ef
	if ef == 0 {
		ef = engine.DefaultEf(k)
	}
	if len(req.Query) == 0 || k < 1 || k > maxK || ef < k || ef > maxEf {
		s.metrics.BadRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, SearchResponse{
			Error: fmt.Sprintf("invalid query shape (len=%d k=%d ef=%d; limits k<=%d ef<=%d)",
				len(req.Query), k, ef, maxK, maxEf)})
		return
	}
	if req.Mode != "" {
		if _, err := engine.ParseRoute(req.Mode); err != nil {
			s.metrics.BadRequests.Add(1)
			writeJSON(w, http.StatusBadRequest, SearchResponse{Error: err.Error()})
			return
		}
		if s.cfg.SearchPrecision == nil {
			s.metrics.BadRequests.Add(1)
			writeJSON(w, http.StatusBadRequest, SearchResponse{
				Error: "mode selection is not supported by this server"})
			return
		}
	}
	if req.RecallTarget < 0 || req.RecallTarget > 1 {
		s.metrics.BadRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, SearchResponse{
			Error: fmt.Sprintf("recall_target %g outside (0, 1]", req.RecallTarget)})
		return
	}
	if req.RecallTarget > 0 && s.cfg.SearchPrecision == nil {
		s.metrics.BadRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, SearchResponse{
			Error: "recall_target is not supported by this server"})
		return
	}

	ctx, cancel, stop := s.requestCtx(r, req.TimeoutMs)
	defer cancel()
	defer stop()

	// Deferred, so a hook panic (contained to a 500 by recoverWrap) does not
	// leak the gauge.
	s.metrics.InFlight.Add(1)
	defer s.metrics.InFlight.Add(-1)
	var (
		out Outcome
		err error
	)
	if req.RecallTarget > 0 {
		s.metrics.RecallTargeted.Add(1)
	}
	if req.Mode == "" && req.RecallTarget == 0 && s.cfg.Search != nil {
		out.Neighbors, err = s.cfg.Search(ctx, req.Query, k, ef)
	} else {
		out, err = s.cfg.SearchPrecision(ctx, req.Query, k, ef, req.Mode, req.RecallTarget)
	}
	if out.Route != "" {
		// Tell the client which path ran (meaningful even on a 504 partial)
		// and count it.
		w.Header().Set(RouteHeader, out.Route)
		s.metrics.countRoute(out.Route)
	}

	if err != nil {
		// The 504 body is the search's own: what the deadline left, flagged.
		s.writeError(w, r, err, SearchResponse{
			Results: toResults(out.Neighbors), Partial: len(out.Neighbors) > 0, Faults: out.Faults,
			Error: "search deadline exceeded"})
		return
	}
	s.metrics.OK.Add(1)
	if out.Partial {
		// A degraded merge is still a 200 — the results that ARE there
		// are correct — but it is flagged loudly so clients that need
		// complete answers can retry.
		s.metrics.Partials.Add(1)
		w.Header().Set(PartialHeader, "true")
	}
	if !out.Partial && len(out.Faults) == 0 && writeSearchOK(w, buf, out.Neighbors) {
		return
	}
	writeJSON(w, http.StatusOK, SearchResponse{
		Results: toResults(out.Neighbors), Partial: out.Partial, Faults: out.Faults})
}

// writeError puts a hook's error on the wire and counts it — the one taxonomy
// of searches and mutations: client gone (nothing to write to a closed pipe),
// 504 with the endpoint's own timedOut body, 503 while draining, 400 for what
// Config.BadRequest claims, 500.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error, timedOut SearchResponse) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		if r.Context().Err() != nil {
			// The client's own deadline/disconnect raced ours.
			s.metrics.ClientCancels.Add(1)
			return
		}
		s.metrics.Timeouts.Add(1)
		if timedOut.Partial {
			w.Header().Set(PartialHeader, "true")
		}
		writeJSON(w, http.StatusGatewayTimeout, timedOut)
	case errors.Is(err, context.Canceled):
		if s.baseCtx.Err() != nil {
			s.metrics.Draining.Add(1)
			writeJSON(w, http.StatusServiceUnavailable, SearchResponse{Error: "server shutting down"})
			return
		}
		s.metrics.ClientCancels.Add(1)
	case s.cfg.BadRequest != nil && s.cfg.BadRequest(err):
		s.metrics.BadRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, SearchResponse{Error: err.Error()})
	default:
		s.metrics.Internal.Add(1)
		writeJSON(w, http.StatusInternalServerError, SearchResponse{Error: "internal error"})
	}
}

// requestCtx builds a request's deadline context: the server default, or
// the request's own timeout_ms, capped at MaxTimeout — and tied to the
// server lifecycle, so HardCancel aborts it too. The caller defers cancel
// and stop (one closure over the two would be an allocation per request).
func (s *Server) requestCtx(r *http.Request, timeoutMs int) (ctx context.Context, cancel context.CancelFunc, stop func() bool) {
	timeout := s.cfg.DefaultTimeout
	if timeoutMs > 0 {
		timeout = time.Duration(timeoutMs) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel = context.WithTimeout(r.Context(), timeout)
	return ctx, cancel, context.AfterFunc(s.baseCtx, cancel)
}

// retryAfterSecs converts an admission Retry-After hint into whole seconds
// with deterministic jitter: base..2×base, so a synchronized burst of shed
// clients spreads its retries instead of stampeding back in lockstep. The
// jitter sequence is a splitmix64 walk — per-server deterministic, lock
// free.
func (s *Server) retryAfterSecs(hint time.Duration) int {
	base := int(hint/time.Second) + 1
	x := stats.Mix64(s.jitterSeq.Add(0x9e3779b97f4a7c15))
	return base + int(x%uint64(base+1))
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"uptime": time.Since(s.start).String(),
	})
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	m := &s.metrics
	adm := s.adm.Stats()
	// One key per concrete route, by the name engine gives it.
	routes := map[string]int64{}
	for r := engine.RouteAuto + 1; r < engine.NumRoutes; r++ {
		routes[r.String()] = m.Routed[r].Load()
	}
	vars := map[string]any{
		"serve": map[string]int64{
			"requests":        m.Requests.Load(),
			"ok":              m.OK.Load(),
			"bad_requests":    m.BadRequests.Load(),
			"shed":            m.Shed.Load(),
			"timeouts":        m.Timeouts.Load(),
			"client_cancels":  m.ClientCancels.Load(),
			"draining":        m.Draining.Load(),
			"panics":          m.Panics.Load(),
			"internal":        m.Internal.Load(),
			"in_flight":       m.InFlight.Load(),
			"partials":        m.Partials.Load(),
			"recall_targeted": m.RecallTargeted.Load(),
			"upserts":         m.Upserts.Load(),
			"deletes":         m.Deletes.Load(),
			"wire_fallbacks":  m.WireFallbacks.Load(),
		},
		"admission": map[string]any{
			"admitted":      adm.Admitted,
			"shed_rate":     adm.ShedRate,
			"shed_queue":    adm.ShedQueue,
			"canceled_wait": adm.CanceledWait,
			"running":       adm.Running,
			"queued":        adm.Queued,
		},
		"routes":     routes,
		"goroutines": runtime.NumGoroutine(),
		"draining":   s.draining.Load(),
	}
	if s.cfg.ExtraVars != nil {
		for key, v := range s.cfg.ExtraVars() {
			if _, taken := vars[key]; !taken {
				vars[key] = v
			}
		}
	}
	writeJSON(w, http.StatusOK, vars)
}

func toResults(nn []hnsw.Neighbor) []SearchResult {
	out := make([]SearchResult, len(nn))
	for i, n := range nn {
		out[i] = SearchResult{ID: n.ID, Dist: n.Dist}
	}
	return out
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
