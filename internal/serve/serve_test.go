// Handler tests run entirely through httptest recorders — no sockets, no
// database: the SearchFunc is stubbed per test.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ansmet/internal/engine"
	"ansmet/internal/hnsw"
	"ansmet/internal/leakcheck"
)

// okSearch returns k fake neighbors immediately.
func okSearch(ctx context.Context, q []float32, k, ef int) ([]hnsw.Neighbor, error) {
	out := make([]hnsw.Neighbor, k)
	for i := range out {
		out[i] = hnsw.Neighbor{ID: uint32(i), Dist: float64(i)}
	}
	return out, nil
}

// blockingSearch blocks until the context fires, then reports partial
// results with the context's error.
func blockingSearch(ctx context.Context, q []float32, k, ef int) ([]hnsw.Neighbor, error) {
	<-ctx.Done()
	return []hnsw.Neighbor{{ID: 7, Dist: 0.5}}, ctx.Err()
}

// newTestServer builds a server, wiring okSearch as the plain hook when the
// config names no search hook at all.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Search == nil && cfg.SearchPrecision == nil {
		cfg.Search = okSearch
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postSearch(s *Server, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", "/v1/search", strings.NewReader(body))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func decodeResp(t *testing.T, w *httptest.ResponseRecorder) SearchResponse {
	t.Helper()
	var resp SearchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad response JSON %q: %v", w.Body.String(), err)
	}
	return resp
}

func TestSearchOK(t *testing.T) {
	s := newTestServer(t, Config{})
	w := postSearch(s, `{"query":[1,2,3],"k":4}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	resp := decodeResp(t, w)
	if len(resp.Results) != 4 || resp.Partial {
		t.Fatalf("resp = %+v", resp)
	}
	if s.Metrics().OK.Load() != 1 {
		t.Fatal("OK counter not incremented")
	}
}

func TestSearchMalformedJSON(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, body := range []string{"", "{", `{"query":"nope"}`, "\x00\x01garbage"} {
		w := postSearch(s, body)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("body %q: status = %d, want 400", body, w.Code)
		}
	}
}

func TestSearchOversizedBody(t *testing.T) {
	s := newTestServer(t, Config{MaxBodyBytes: 128})
	big := `{"query":[` + strings.Repeat("1,", 4000) + `1]}`
	w := postSearch(s, big)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", w.Code)
	}
}

func TestSearchShapeLimits(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []string{
		`{"query":[]}`,
		`{"query":[1],"k":-3}`,
		fmt.Sprintf(`{"query":[1],"k":%d}`, maxK+1),
		`{"query":[1],"k":4,"ef":2}`,
		fmt.Sprintf(`{"query":[1],"k":4,"ef":%d}`, maxEf+1),
	}
	for _, body := range cases {
		if w := postSearch(s, body); w.Code != http.StatusBadRequest {
			t.Fatalf("body %s: status = %d, want 400", body, w.Code)
		}
	}
	// The limits themselves are allowed.
	body := fmt.Sprintf(`{"query":[1],"k":%d,"ef":%d}`, maxK, maxEf)
	if w := postSearch(s, body); w.Code != http.StatusOK {
		t.Fatalf("body %s: status = %d, want 200", body, w.Code)
	}
}

func TestSearchBadRequestClassifier(t *testing.T) {
	errDim := errors.New("dimension mismatch")
	s := newTestServer(t, Config{
		Search: func(context.Context, []float32, int, int) ([]hnsw.Neighbor, error) {
			return nil, fmt.Errorf("wrapped: %w", errDim)
		},
		BadRequest: func(err error) bool { return errors.Is(err, errDim) },
	})
	w := postSearch(s, `{"query":[1,2]}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 via classifier", w.Code)
	}
	// Without the classifier the same failure is an internal error.
	s2 := newTestServer(t, Config{
		Search: func(context.Context, []float32, int, int) ([]hnsw.Neighbor, error) {
			return nil, errDim
		},
	})
	if w := postSearch(s2, `{"query":[1,2]}`); w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 without classifier", w.Code)
	}
}

func TestSearchDeadlinePartial(t *testing.T) {
	s := newTestServer(t, Config{Search: blockingSearch, DefaultTimeout: 20 * time.Millisecond})
	w := postSearch(s, `{"query":[1,2,3]}`)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", w.Code)
	}
	resp := decodeResp(t, w)
	if !resp.Partial || len(resp.Results) != 1 || resp.Results[0].ID != 7 {
		t.Fatalf("resp = %+v, want partial result id=7", resp)
	}
	if s.Metrics().Timeouts.Load() != 1 {
		t.Fatal("Timeouts counter not incremented")
	}
}

func TestSearchClientTimeoutOverride(t *testing.T) {
	s := newTestServer(t, Config{
		Search:         blockingSearch,
		DefaultTimeout: time.Hour, // must be overridden by the request
		MaxTimeout:     time.Hour,
	})
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- postSearch(s, `{"query":[1],"timeout_ms":20}`) }()
	select {
	case w := <-done:
		if w.Code != http.StatusGatewayTimeout {
			t.Fatalf("status = %d, want 504", w.Code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request-level timeout never fired")
	}
}

func TestSearchOverloadSheds(t *testing.T) {
	started := make(chan struct{}, 8)
	unblock := make(chan struct{})
	s := newTestServer(t, Config{
		Search: func(ctx context.Context, q []float32, k, ef int) ([]hnsw.Neighbor, error) {
			started <- struct{}{}
			<-unblock
			return nil, nil
		},
		Admission: AdmissionConfig{MaxConcurrent: 1, MaxQueue: 1},
	})
	// Request 1 occupies the slot; request 2 queues; request 3 must shed.
	go postSearch(s, `{"query":[1]}`)
	<-started
	go postSearch(s, `{"query":[1]}`)
	waitFor(t, func() bool { return s.Admission().Stats().Queued == 1 })

	w := postSearch(s, `{"query":[1]}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After header")
	}
	if s.Metrics().Shed.Load() != 1 {
		t.Fatal("Shed counter not incremented")
	}
	close(unblock)
	waitFor(t, func() bool { return s.Admission().Stats().Running == 0 })
}

// TestPanicContained: a panic inside the search hook is a 500, counted, and
// leaks neither the in-flight gauge nor the admission slot; the server keeps
// serving.
func TestPanicContained(t *testing.T) {
	explode := true
	s := newTestServer(t, Config{Search: func(ctx context.Context, q []float32, k, ef int) ([]hnsw.Neighbor, error) {
		if explode {
			panic("hook exploded")
		}
		return okSearch(ctx, q, k, ef)
	}})
	if w := postSearch(s, `{"query":[1]}`); w.Code != http.StatusInternalServerError {
		t.Fatalf("hook panic: status = %d, want 500", w.Code)
	}
	if p, in, run := s.Metrics().Panics.Load(), s.Metrics().InFlight.Load(), s.Admission().Stats().Running; p != 1 || in != 0 || run != 0 {
		t.Fatalf("after a hook panic: panics=%d in_flight=%d admission running=%d, want 1, 0, 0", p, in, run)
	}
	explode = false
	if w := postSearch(s, `{"query":[1]}`); w.Code != http.StatusOK {
		t.Fatalf("post-hook-panic status = %d, want 200", w.Code)
	}
}

func TestDrainLifecycle(t *testing.T) {
	s := newTestServer(t, Config{})
	get := func(path string) int {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w.Code
	}
	if c := get("/v1/ready"); c != http.StatusOK {
		t.Fatalf("ready = %d before drain", c)
	}
	if c := get("/v1/health"); c != http.StatusOK {
		t.Fatalf("health = %d", c)
	}

	s.Drain()
	if c := get("/v1/ready"); c != http.StatusServiceUnavailable {
		t.Fatalf("ready = %d during drain, want 503", c)
	}
	if c := get("/v1/health"); c != http.StatusOK {
		t.Fatalf("health = %d during drain, want 200 (process alive)", c)
	}
	if w := postSearch(s, `{"query":[1]}`); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("search during drain = %d, want 503", w.Code)
	}

	// Over a real listener: once served, abandoned mid-search by clients,
	// drained and shut down, the server, its connections and the client
	// leave no goroutine behind. A query starting with 0 searches until its
	// context ends.
	base := leakcheck.Baseline()
	s = newTestServer(t, Config{Search: func(ctx context.Context, q []float32, k, ef int) ([]hnsw.Neighbor, error) {
		if q[0] == 0 {
			return blockingSearch(ctx, q, k, ef)
		}
		return okSearch(ctx, q, k, ef)
	}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	url, client := "http://"+ln.Addr().String(), &http.Client{}
	send := func(ctx context.Context, method, path, body string) (int, error) {
		req, err := http.NewRequestWithContext(ctx, method, url+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if c, err := send(ctx, "POST", "/v1/search", `{"query":[1]}`); c != http.StatusOK {
			t.Fatalf("search over the listener = %d (%v), want 200", c, err)
		}
	}
	for i := 0; i < 4; i++ {
		gone, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
		if _, err := send(gone, "POST", "/v1/search", `{"query":[0]}`); err == nil {
			t.Fatal("a search that ends only with its client answered")
		}
		cancel()
	}
	waitFor(t, func() bool { return s.Metrics().ClientCancels.Load() == 4 })
	s.Drain()
	if c, err := send(ctx, "GET", "/v1/ready", ""); c != http.StatusServiceUnavailable {
		t.Fatalf("ready over the listener = %d (%v) during drain, want 503", c, err)
	}
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown overran its deadline: %v", err)
	}
	client.CloseIdleConnections()
	leakcheck.SettleT(t, base)
}

func TestHardCancelAbortsInFlight(t *testing.T) {
	s := newTestServer(t, Config{Search: blockingSearch, DefaultTimeout: time.Hour, MaxTimeout: time.Hour})
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- postSearch(s, `{"query":[1]}`) }()
	waitFor(t, func() bool { return s.Metrics().InFlight.Load() == 1 })

	s.HardCancel()
	select {
	case w := <-done:
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want 503 after hard cancel", w.Code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hard cancel did not abort the in-flight search")
	}
}

func TestVarsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	postSearch(s, `{"query":[1]}`)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/debug/vars", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("vars = %d", w.Code)
	}
	var v struct {
		Serve      map[string]int64 `json:"serve"`
		Goroutines int              `json:"goroutines"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("vars JSON: %v", err)
	}
	if v.Serve["requests"] != 1 || v.Serve["ok"] != 1 || v.Goroutines <= 0 {
		t.Fatalf("vars = %s", w.Body)
	}
	// The canonical body above took the one-pass path; the key is there
	// either way.
	if n, ok := v.Serve["wire_fallbacks"]; !ok || n != 0 {
		t.Fatalf("wire_fallbacks = %d (present %v), want 0: %s", n, ok, w.Body)
	}
}

func TestMethodRouting(t *testing.T) {
	s := newTestServer(t, Config{})
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/v1/search", bytes.NewReader(nil)))
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/search = %d, want 405", w.Code)
	}
}

func TestSearchOutcomePartialDegradation(t *testing.T) {
	s := newTestServer(t, Config{
		SearchPrecision: func(ctx context.Context, q []float32, k, ef int, mode string, rt float64) (Outcome, error) {
			return Outcome{
				Neighbors: []hnsw.Neighbor{{ID: 3, Dist: 0.25}},
				Partial:   true,
				Faults:    []string{"shard 1: crash: device wedged"},
			}, nil
		},
	})
	w := postSearch(s, `{"query":[1,2],"k":4}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (degraded merges still serve)", w.Code)
	}
	if got := w.Header().Get(PartialHeader); got != "true" {
		t.Fatalf("%s = %q, want \"true\"", PartialHeader, got)
	}
	resp := decodeResp(t, w)
	if !resp.Partial || len(resp.Faults) != 1 || len(resp.Results) != 1 {
		t.Fatalf("resp = %+v, want partial with 1 fault + 1 result", resp)
	}
	if s.Metrics().Partials.Load() != 1 || s.Metrics().OK.Load() != 1 {
		t.Fatalf("partials=%d ok=%d, want 1/1", s.Metrics().Partials.Load(), s.Metrics().OK.Load())
	}

	// A healthy outcome must NOT carry the partial marker.
	s2 := newTestServer(t, Config{
		SearchPrecision: func(ctx context.Context, q []float32, k, ef int, mode string, rt float64) (Outcome, error) {
			return Outcome{Neighbors: []hnsw.Neighbor{{ID: 1, Dist: 0.5}}}, nil
		},
	})
	w2 := postSearch(s2, `{"query":[1,2]}`)
	if w2.Code != http.StatusOK || w2.Header().Get(PartialHeader) != "" {
		t.Fatalf("healthy outcome: status=%d partial header=%q", w2.Code, w2.Header().Get(PartialHeader))
	}
	if got := decodeResp(t, w2); got.Partial || s2.Metrics().Partials.Load() != 0 {
		t.Fatalf("healthy outcome flagged partial: %+v", got)
	}
}

func TestRetryAfterJitterBounds(t *testing.T) {
	s := newTestServer(t, Config{})
	seen := map[int]bool{}
	for i := 0; i < 256; i++ {
		secs := s.retryAfterSecs(1500 * time.Millisecond) // base = 2
		if secs < 2 || secs > 4 {
			t.Fatalf("retryAfterSecs = %d, want in [2,4]", secs)
		}
		seen[secs] = true
	}
	if len(seen) < 2 {
		t.Fatalf("jitter produced a single value %v; retries would stampede in sync", seen)
	}
}

// TestRetryAfterUnchanged pins the first 100 Retry-After values of a fresh
// server to those recorded before its jitter hash went through stats.Mix64.
func TestRetryAfterUnchanged(t *testing.T) {
	s := newTestServer(t, Config{})
	var got []int
	for i := 0; i < 100; i++ {
		got = append(got, s.retryAfterSecs(time.Duration(i%7)*700*time.Millisecond))
	}
	const want = "f13bfca0ccec349879133d53ad3cf16c020ebee612892079d362ba25469dafac"
	if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint(got)))); sum != want {
		t.Fatalf("Retry-After sequence %v: sha256 %s, want %s", got, sum, want)
	}
}

func TestVarsExtraSections(t *testing.T) {
	s := newTestServer(t, Config{
		ExtraVars: func() map[string]any {
			return map[string]any{
				"cluster": map[string]any{"shards": 3},
				"serve":   "must not clobber the built-in section",
			}
		},
	})
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/debug/vars", nil))
	var v struct {
		Serve   map[string]int64 `json:"serve"`
		Cluster map[string]any   `json:"cluster"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("vars JSON: %v", err)
	}
	if v.Cluster["shards"] != float64(3) {
		t.Fatalf("extra cluster section missing: %s", w.Body)
	}
	if v.Serve == nil {
		t.Fatalf("built-in serve section clobbered by ExtraVars: %s", w.Body)
	}
}

// --- mode / routed search ------------------------------------------------

// routedOK echoes the resolved mode as the taken route ("auto" resolves to
// "exact" — a stand-in for the router's healthy-idle decision).
func routedOK(ctx context.Context, q []float32, k, ef int, mode string, rt float64) (Outcome, error) {
	route := mode
	if route == "auto" {
		route = "exact"
	}
	nn, _ := okSearch(ctx, q, k, ef)
	return Outcome{Neighbors: nn, Route: route}, nil
}

func TestSearchModeRouted(t *testing.T) {
	s := newTestServer(t, Config{SearchPrecision: routedOK})
	for _, c := range []struct{ mode, wantRoute string }{
		{"exact", "exact"}, {"auto", "exact"}, {"host", "host"},
	} {
		w := postSearch(s, `{"query":[1,2],"k":3,"mode":"`+c.mode+`"}`)
		if w.Code != http.StatusOK {
			t.Fatalf("mode %q: status %d, body %s", c.mode, w.Code, w.Body)
		}
		if got := w.Header().Get(RouteHeader); got != c.wantRoute {
			t.Fatalf("mode %q: route header %q, want %q", c.mode, got, c.wantRoute)
		}
		if resp := decodeResp(t, w); len(resp.Results) != 3 {
			t.Fatalf("mode %q: %+v", c.mode, resp)
		}
	}
	// The NDP model's routes are not served: their modes are unknown ones.
	for _, mode := range []string{"ndp", "tiered"} {
		if w := postSearch(s, `{"query":[1,2],"k":3,"mode":"`+mode+`"}`); w.Code != http.StatusBadRequest {
			t.Fatalf("mode %q: status %d, want 400", mode, w.Code)
		}
	}
	m := s.Metrics()
	for route, want := range map[engine.Route]int64{engine.RouteExact: 2, engine.RouteHost: 1} {
		if got := m.Routed[route].Load(); got != want {
			t.Fatalf("route counter %v = %d, want %d", route, got, want)
		}
	}
}

// TestSearchNoModeReportsRoute: on a server wired with SearchPrecision
// alone a plain body reaches it, with no mode and no target, and a backend
// that says which engine answered (Outcome.Route) gets the route header and
// the per-route counter on requests without a mode too.
func TestSearchNoModeReportsRoute(t *testing.T) {
	gotMode, gotTarget := "unset", -1.0
	s := newTestServer(t, Config{
		SearchPrecision: func(ctx context.Context, q []float32, k, ef int, mode string, rt float64) (Outcome, error) {
			gotMode, gotTarget = mode, rt
			nn, err := okSearch(ctx, q, k, ef)
			return Outcome{Neighbors: nn, Route: "host"}, err
		},
	})
	w := postSearch(s, `{"query":[1,2],"k":3}`)
	if w.Code != http.StatusOK || w.Header().Get(RouteHeader) != "host" {
		t.Fatalf("status %d, route header %q, want 200 and host", w.Code, w.Header().Get(RouteHeader))
	}
	if gotMode != "" || gotTarget != 0 {
		t.Fatalf("plain body reached the hook with (mode=%q, target=%v), want (\"\", 0)", gotMode, gotTarget)
	}
	if got := s.Metrics().Routed[engine.RouteHost].Load(); got != 1 {
		t.Fatalf("host counter = %d, want 1", got)
	}
}

func TestSearchModeEmptyUsesDefaultPath(t *testing.T) {
	// With both hooks wired, a request without a mode must take the plain
	// path (routing is strictly opt-in); a plain SearchFunc reports no
	// route, so there is no route header to carry.
	called := false
	s := newTestServer(t, Config{
		Search: okSearch,
		SearchPrecision: func(ctx context.Context, q []float32, k, ef int, mode string, rt float64) (Outcome, error) {
			called = true
			return routedOK(ctx, q, k, ef, mode, rt)
		},
	})
	w := postSearch(s, `{"query":[1,2],"k":3}`)
	if w.Code != http.StatusOK || called {
		t.Fatalf("status %d, general hook called=%v", w.Code, called)
	}
	if got := w.Header().Get(RouteHeader); got != "" {
		t.Fatalf("unexpected route header %q", got)
	}
}

func TestSearchModeValidation(t *testing.T) {
	s := newTestServer(t, Config{SearchPrecision: routedOK})
	w := postSearch(s, `{"query":[1,2],"k":3,"mode":"warp"}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("unknown mode: status %d, want 400", w.Code)
	}
	// The 400 names every mode engine knows: the text is generated from the
	// one list, not kept beside it.
	msg := decodeResp(t, w).Error
	for r := engine.RouteAuto; r < engine.NumRoutes; r++ {
		if !strings.Contains(msg, r.String()) {
			t.Fatalf("unknown-mode error %q does not offer %q", msg, r)
		}
	}

	// A server with the plain hook alone rejects any mode with 400.
	plain := newTestServer(t, Config{})
	w = postSearch(plain, `{"query":[1,2],"k":3,"mode":"exact"}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("mode without SearchPrecision: status %d, want 400", w.Code)
	}
	if resp := decodeResp(t, w); resp.Error == "" {
		t.Fatal("missing error message")
	}
}

func TestVarsRouteCounters(t *testing.T) {
	s := newTestServer(t, Config{SearchPrecision: routedOK})
	postSearch(s, `{"query":[1],"k":1,"mode":"exact"}`)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/debug/vars", nil))
	var vars map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &vars); err != nil {
		t.Fatal(err)
	}
	routes, ok := vars["routes"].(map[string]any)
	if !ok {
		t.Fatalf("no routes section in vars: %v", vars)
	}
	// Every concrete route has a key, named as engine names it.
	for r := engine.RouteAuto + 1; r < engine.NumRoutes; r++ {
		want := 0.0
		if r == engine.RouteExact {
			want = 1
		}
		if got, ok := routes[r.String()].(float64); !ok || got != want {
			t.Fatalf("routes[%q] = %v, want %v (section: %v)", r, routes[r.String()], want, routes)
		}
	}
	if len(routes) != int(engine.NumRoutes)-1 {
		t.Fatalf("routes section lists %d keys, want %d: %v", len(routes), engine.NumRoutes-1, routes)
	}
}

// TestSearchRecallTarget: the recall_target field validates, dispatches
// through the precision hook with the pre-validated target and mode, and
// is counted in metrics and /debug/vars.
func TestSearchRecallTarget(t *testing.T) {
	var gotTarget float64
	var gotMode string
	s := newTestServer(t, Config{
		SearchPrecision: func(ctx context.Context, q []float32, k, ef int, mode string, rt float64) (Outcome, error) {
			gotTarget, gotMode = rt, mode
			out, err := okSearch(ctx, q, k, ef)
			return Outcome{Neighbors: out, Route: "tiered"}, err
		},
	})

	w := postSearch(s, `{"query":[1,2,3],"k":4,"recall_target":0.9}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	if gotTarget != 0.9 || gotMode != "" {
		t.Fatalf("precision hook got (target=%v, mode=%q), want (0.9, \"\")", gotTarget, gotMode)
	}
	if resp := decodeResp(t, w); len(resp.Results) != 4 {
		t.Fatalf("resp = %+v", resp)
	}
	if got := w.Header().Get(RouteHeader); got != "tiered" {
		t.Fatalf("route header %q, want tiered", got)
	}

	// recall_target composes with an explicit mode: the hook receives both.
	w = postSearch(s, `{"query":[1,2,3],"k":2,"mode":"exact","recall_target":1}`)
	if w.Code != http.StatusOK {
		t.Fatalf("mode+target status = %d, body %s", w.Code, w.Body)
	}
	if gotTarget != 1 || gotMode != "exact" {
		t.Fatalf("precision hook got (target=%v, mode=%q), want (1, \"exact\")", gotTarget, gotMode)
	}

	if n := s.Metrics().RecallTargeted.Load(); n != 2 {
		t.Fatalf("RecallTargeted = %d, want 2", n)
	}
	wv := httptest.NewRecorder()
	s.Handler().ServeHTTP(wv, httptest.NewRequest("GET", "/debug/vars", nil))
	var vars map[string]any
	if err := json.Unmarshal(wv.Body.Bytes(), &vars); err != nil {
		t.Fatalf("vars JSON: %v", err)
	}
	serveVars := vars["serve"].(map[string]any)
	if serveVars["recall_targeted"].(float64) != 2 {
		t.Fatalf("vars recall_targeted = %v, want 2", serveVars["recall_targeted"])
	}
}

// TestSearchRecallTargetValidation: out-of-range targets and targets on a
// server without a precision backend are 400s, not silent fallbacks.
func TestSearchRecallTargetValidation(t *testing.T) {
	s := newTestServer(t, Config{
		SearchPrecision: func(ctx context.Context, q []float32, k, ef int, mode string, rt float64) (Outcome, error) {
			out, err := okSearch(ctx, q, k, ef)
			return Outcome{Neighbors: out}, err
		},
	})
	for _, body := range []string{
		`{"query":[1],"recall_target":-0.5}`,
		`{"query":[1],"recall_target":1.5}`,
	} {
		if w := postSearch(s, body); w.Code != http.StatusBadRequest {
			t.Fatalf("body %s: status = %d, want 400", body, w.Code)
		}
	}
	// Zero means "server default": a plain request, not a recall-targeted one.
	if w := postSearch(s, `{"query":[1],"recall_target":0}`); w.Code != http.StatusOK {
		t.Fatalf("zero target: status = %d", w.Code)
	}
	if n := s.Metrics().RecallTargeted.Load(); n != 0 {
		t.Fatalf("zero target counted as recall-targeted (%d)", n)
	}

	// No precision backend: an explicit target is an advertised capability
	// mismatch.
	s2 := newTestServer(t, Config{})
	if w := postSearch(s2, `{"query":[1],"recall_target":0.9}`); w.Code != http.StatusBadRequest {
		t.Fatalf("no-backend status = %d, want 400", w.Code)
	}
	if s2.Metrics().BadRequests.Load() != 1 {
		t.Fatal("no-backend rejection not counted")
	}
}
