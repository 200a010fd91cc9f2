// Wire codec tests. The codec is differential by construction: every test
// here compares it with encoding/json (or with strconv, which encoding/json
// calls) on the same bytes, or with what the parent commit answered.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ansmet/internal/dataset"
	"ansmet/internal/hnsw"
)

// echoNeighbors makes the response show what was decoded: ef in the ids,
// the query's components, widened exactly, in the distances.
func echoNeighbors(q []float32, k, ef int) []hnsw.Neighbor {
	nn := make([]hnsw.Neighbor, k)
	for i := range nn {
		nn[i] = hnsw.Neighbor{ID: uint32(ef*100 + i), Dist: float64(q[i%len(q)])}
	}
	return nn
}

func wireTableServer(t *testing.T) *Server {
	return newTestServer(t, Config{
		MaxBodyBytes: 256,
		// What the three hooks the table was recorded through answered: a
		// target echoes itself from "tiered", a mode names itself, a plain
		// body is "host".
		SearchPrecision: func(ctx context.Context, q []float32, k, ef int, mode string, rt float64) (Outcome, error) {
			nn := echoNeighbors(q, k, ef)
			switch {
			case rt > 0:
				nn[0].Dist = rt
				return Outcome{Neighbors: nn, Route: "tiered"}, nil
			case mode != "":
				return Outcome{Neighbors: nn, Route: mode}, nil
			}
			return Outcome{Neighbors: nn, Route: "host"}, nil
		},
		Upsert: func(ctx context.Context, id uint32, hasID bool, vec []float32) (uint32, error) {
			if !hasID {
				id = 1000
			}
			return id + uint32(len(vec)), nil
		},
		Delete: func(ctx context.Context, id uint32) error { return nil },
	})
}

var overLimit = `{"query":[` + strings.Repeat("1,", 200) + `1]}`

// maxEfReply is the reply to an ef of 2⁶³ − 1, which follows the width of
// int: where it has 64 bits the number fits and the shape check refuses it;
// where it has 32, encoding/json refuses the number itself.
var maxEfReply = map[int]string{
	64: `{"results":null,"error":"invalid query shape (len=1 k=1 ef=9223372036854775807; limits k\u003c=1024 ef\u003c=8192)"}` + "\n",
	32: `{"results":null,"error":"malformed JSON: json: cannot unmarshal number 9223372036854775807 into Go struct field SearchRequest.ef of type int"}` + "\n",
}[strconv.IntSize]

// wireTable is what the parent commit (PR 18, streaming encoding/json on
// both sides) answered through wireTableServer's Handler(), recorded there:
// status, X-ANSMET-Route and every response byte. fallback says whether the
// body is one the recogniser declines.
var wireTable = []struct {
	path, body string
	status     int
	route      string
	resp       string
	fallback   bool
}{
	// canonical bodies
	{"/v1/search", `{"query":[1,2,3],"k":4}`, 200, "host",
		`{"results":[{"id":3200,"dist":1},{"id":3201,"dist":2},{"id":3202,"dist":3},{"id":3203,"dist":1}]}` + "\n", false},
	{"/v1/search", `{"k":2,"query":[0.5,-0,1e5,0.1e-7],"ef":40}`, 200, "host",
		`{"results":[{"id":4000,"dist":0.5},{"id":4001,"dist":-0}]}` + "\n", false},
	{"/v1/search", " {\t\"query\" : [ 1 , 2.5e+07 ] ,\r\n \"k\" : 3 } \n", 200, "host",
		`{"results":[{"id":3200,"dist":1},{"id":3201,"dist":25000000},{"id":3202,"dist":1}]}` + "\n", false},
	{"/v1/search", `{"query":[0.1,16777217,3.4028235e38,1e-46],"k":4,"mode":"exact"}`, 200, "exact",
		`{"results":[{"id":3200,"dist":0.10000000149011612},{"id":3201,"dist":16777216},{"id":3202,"dist":3.4028234663852886e+38},{"id":3203,"dist":0}]}` + "\n", false},
	{"/v1/search", `{"query":[1,2,3],"k":2,"recall_target":0.9}`, 200, "tiered",
		`{"results":[{"id":3200,"dist":0.9},{"id":3201,"dist":2}]}` + "\n", false},
	{"/v1/search", `{"query":[1e-7,1E21,-1e-9,123456.789e3],"k":4}`, 200, "host",
		`{"results":[{"id":3200,"dist":1.0000000116860974e-7},{"id":3201,"dist":1.0000000200408773e+21},{"id":3202,"dist":-9.999999717180685e-10},{"id":3203,"dist":123456792}]}` + "\n", false},
	// canonical, refused by the handler
	{"/v1/search", `{}`, 400, "",
		`{"results":null,"error":"invalid query shape (len=0 k=10 ef=32; limits k\u003c=1024 ef\u003c=8192)"}` + "\n", false},
	{"/v1/search", `{"query":[]}`, 400, "",
		`{"results":null,"error":"invalid query shape (len=0 k=10 ef=32; limits k\u003c=1024 ef\u003c=8192)"}` + "\n", false},
	{"/v1/search", `{"query":[1],"k":-3}`, 400, "",
		`{"results":null,"error":"invalid query shape (len=1 k=-3 ef=32; limits k\u003c=1024 ef\u003c=8192)"}` + "\n", false},
	{"/v1/search", `{"query":[1,2],"k":3,"mode":"warp"}`, 400, "",
		`{"results":null,"error":"engine: unknown route mode \"warp\" (want one of auto, exact, host)"}` + "\n", false},
	{"/v1/search", `{"query":[1],"recall_target":1.5}`, 400, "",
		`{"results":null,"error":"recall_target 1.5 outside (0, 1]"}` + "\n", false},
	// declined, accepted by encoding/json
	{"/v1/search", `{"Query":[1,2],"K":2}`, 200, "host",
		`{"results":[{"id":3200,"dist":1},{"id":3201,"dist":2}]}` + "\n", true},
	{"/v1/search", `{"query":[1,2],"k":2,"extra":{"a":[true]}}`, 200, "host",
		`{"results":[{"id":3200,"dist":1},{"id":3201,"dist":2}]}` + "\n", true},
	{"/v1/search", `{"query":[1,2],"k":2} trailing garbage`, 200, "host",
		`{"results":[{"id":3200,"dist":1},{"id":3201,"dist":2}]}` + "\n", true},
	{"/v1/search", `{"query":[1,2],"k":1,"k":2}`, 200, "host",
		`{"results":[{"id":3200,"dist":1},{"id":3201,"dist":2}]}` + "\n", true},
	{"/v1/search", `{"query":[1,2],"k":2,"mode":"ex\u0061ct"}`, 200, "exact",
		`{"results":[{"id":3200,"dist":1},{"id":3201,"dist":2}]}` + "\n", true},
	{"/v1/search", `{"query":[1,null],"k":2}`, 200, "host",
		`{"results":[{"id":3200,"dist":1},{"id":3201,"dist":0}]}` + "\n", true},
	// "panic" is no longer a SearchRequest key: these two bodies were
	// canonical (200) and a type error (400) while it was one; now
	// encoding/json ignores the key.
	{"/v1/search", `{"query":[1],"k":1,"timeout_ms":50,"panic":false}`, 200, "host",
		`{"results":[{"id":3200,"dist":1}]}` + "\n", true},
	{"/v1/search", `{"query":[1],"panic":"yes"}`, 200, "host",
		`{"results":[{"id":3200,"dist":1},{"id":3201,"dist":1},{"id":3202,"dist":1},{"id":3203,"dist":1},{"id":3204,"dist":1},{"id":3205,"dist":1},{"id":3206,"dist":1},{"id":3207,"dist":1},{"id":3208,"dist":1},{"id":3209,"dist":1}]}` + "\n", true},
	{"/v1/search", `{"query":null,"k":2}`, 400, "",
		`{"results":null,"error":"invalid query shape (len=0 k=2 ef=32; limits k\u003c=1024 ef\u003c=8192)"}` + "\n", true},
	{"/v1/search", `{"query":[1],"k":1,"ef":9223372036854775807}`, 400, "", maxEfReply, true},
	// declined, refused by encoding/json
	{"/v1/search", "", 400, "",
		`{"results":null,"error":"malformed JSON: EOF"}` + "\n", true},
	{"/v1/search", `{`, 400, "",
		`{"results":null,"error":"malformed JSON: unexpected EOF"}` + "\n", true},
	{"/v1/search", `{"query":"nope"}`, 400, "",
		`{"results":null,"error":"malformed JSON: json: cannot unmarshal string into Go struct field SearchRequest.query of type []float32"}` + "\n", true},
	{"/v1/search", `{"query":[1e999]}`, 400, "",
		`{"results":null,"error":"malformed JSON: json: cannot unmarshal number 1e999 into Go struct field SearchRequest.query of type float32"}` + "\n", true},
	{"/v1/search", `{"query":[01]}`, 400, "",
		`{"results":null,"error":"malformed JSON: invalid character '1' after array element"}` + "\n", true},
	{"/v1/search", `{"query":[1.]}`, 400, "",
		`{"results":null,"error":"malformed JSON: invalid character ']' after decimal point in numeric literal"}` + "\n", true},
	{"/v1/search", `{"query":[1,]}`, 400, "",
		`{"results":null,"error":"malformed JSON: invalid character ']' looking for beginning of value"}` + "\n", true},
	{"/v1/search", `{"query":[1],"k":1.5}`, 400, "",
		`{"results":null,"error":"malformed JSON: json: cannot unmarshal number 1.5 into Go struct field SearchRequest.k of type int"}` + "\n", true},
	{"/v1/search", `{"query":[1],"k":12345678901234567890}`, 400, "",
		`{"results":null,"error":"malformed JSON: json: cannot unmarshal number 12345678901234567890 into Go struct field SearchRequest.k of type int"}` + "\n", true},
	{"/v1/search", `{"query":[1],"mode":7}`, 400, "",
		`{"results":null,"error":"malformed JSON: json: cannot unmarshal number into Go struct field SearchRequest.mode of type string"}` + "\n", true},
	{"/v1/search", `[1,2,3]`, 400, "",
		`{"results":null,"error":"malformed JSON: json: cannot unmarshal array into Go value of type serve.SearchRequest"}` + "\n", true},
	{"/v1/search", "\x00\x01garbage", 400, "",
		`{"results":null,"error":"malformed JSON: invalid character '\\x00' looking for beginning of value"}` + "\n", true},
	// over MaxBodyBytes
	{"/v1/search", overLimit, 413, "",
		`{"results":null,"error":"body exceeds 256 bytes"}` + "\n", false},
	// mutation endpoints (/v1/delete has no recogniser)
	{"/v1/upsert", `{"vector":[1,2,3]}`, 200, "",
		`{"id":1003}` + "\n", false},
	{"/v1/upsert", `{"timeout_ms":100,"vector":[4,5],"id":7}`, 200, "",
		`{"id":9}` + "\n", false},
	{"/v1/upsert", `{"id":4294967295,"vector":[1]}`, 200, "",
		`{"id":0}` + "\n", false},
	{"/v1/upsert", `{"id":4294967296,"vector":[1]}`, 400, "",
		`{"results":null,"error":"malformed JSON: json: cannot unmarshal number 4294967296 into Go struct field UpsertRequest.id of type uint32"}` + "\n", true},
	{"/v1/upsert", `{"id":-0,"vector":[1]}`, 400, "",
		`{"results":null,"error":"malformed JSON: json: cannot unmarshal number -0 into Go struct field UpsertRequest.id of type uint32"}` + "\n", true},
	{"/v1/upsert", `{"id":null,"vector":[1]}`, 200, "",
		`{"id":1001}` + "\n", true},
	{"/v1/upsert", `{"Vector":[1]}`, 200, "",
		`{"id":1001}` + "\n", true},
	{"/v1/upsert", `{"vector":[]}`, 400, "",
		`{"id":0,"error":"missing vector"}` + "\n", false},
	{"/v1/upsert", `{}`, 400, "",
		`{"id":0,"error":"missing vector"}` + "\n", false},
	{"/v1/upsert", `{"vector":[1e39]}`, 400, "",
		`{"results":null,"error":"malformed JSON: json: cannot unmarshal number 1e39 into Go struct field UpsertRequest.vector of type float32"}` + "\n", true},
	{"/v1/upsert", `{`, 400, "",
		`{"results":null,"error":"malformed JSON: unexpected EOF"}` + "\n", true},
	{"/v1/delete", `{"id":1}`, 200, "",
		`{"deleted":true}` + "\n", false},
	{"/v1/delete", `{"id":null}`, 400, "",
		`{"deleted":false,"error":"missing id"}` + "\n", false},
	{"/v1/delete", `{"id":1.5}`, 400, "",
		`{"results":null,"error":"malformed JSON: json: cannot unmarshal number 1.5 into Go struct field DeleteRequest.id of type uint32"}` + "\n", false},
}

func TestWireHandlerMatchesParent(t *testing.T) {
	s := wireTableServer(t)
	for _, c := range wireTable {
		before := s.Metrics().WireFallbacks.Load()
		w := postJSON(s, c.path, c.body)
		if w.Code != c.status || w.Header().Get(RouteHeader) != c.route || w.Body.String() != c.resp {
			t.Errorf("%s %q:\n got %d route %q %q\nwant %d route %q %q", c.path, c.body,
				w.Code, w.Header().Get(RouteHeader), w.Body.String(), c.status, c.route, c.resp)
		}
		if declined := s.Metrics().WireFallbacks.Load() != before; declined != c.fallback {
			t.Errorf("%s %q: WireFallbacks moved = %v, want %v", c.path, c.body, declined, c.fallback)
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %q: Content-Type %q", c.path, c.body, ct)
		}
	}
}

// TestWireBodyOverLimitIs413 pins the one behaviour the whole-body read
// changed: a body longer than MaxBodyBytes is a 413 whatever its first bytes
// hold. The streaming decoder stopped at the end of the first value and never
// saw the excess (200), or met a syntax error before it (400).
func TestWireBodyOverLimitIs413(t *testing.T) {
	s := newTestServer(t, Config{MaxBodyBytes: 64})
	ok := `{"query":[1,2],"k":2}`
	pad := func(body string, n int) string { return body + strings.Repeat(" ", n-len(body)) }
	for _, c := range []struct {
		body string
		want int
	}{
		{pad(ok, 64), http.StatusOK},                                          // exactly the limit
		{pad(ok, 65), http.StatusRequestEntityTooLarge},                       // parent: 200
		{ok + strings.Repeat("x", 100), http.StatusRequestEntityTooLarge},     // parent: 200
		{pad(`{"query":"nope"}`, 65), http.StatusRequestEntityTooLarge},       // parent: 400
		{`{"query":"nope"}` + strings.Repeat("x", 10), http.StatusBadRequest}, // inside the limit
	} {
		w := postSearch(s, c.body)
		if w.Code != c.want {
			t.Errorf("%d-byte body %q: status %d, want %d", len(c.body), c.body, w.Code, c.want)
		}
		if c.want == http.StatusRequestEntityTooLarge {
			if got := decodeResp(t, w).Error; got != "body exceeds 64 bytes" {
				t.Errorf("413 text %q", got)
			}
		}
	}
	// A hostile Content-Length sizes nothing beyond the limit.
	req := httptest.NewRequest("POST", "/v1/search", strings.NewReader(ok))
	req.ContentLength = 1 << 40
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("overstated Content-Length: status %d, body %s", w.Code, w.Body)
	}
}

// TestMutationHoldsAdmissionSlot: the admission slot is held while the
// mutation hook runs (so -concurrency bounds concurrent journalled writes)
// and returned after. At the parent the slot was released before the hook
// was called and Running read 0 inside it.
func TestMutationHoldsAdmissionSlot(t *testing.T) {
	var s *Server
	var inUpsert, inDelete int
	s = newTestServer(t, Config{
		Upsert: func(ctx context.Context, id uint32, hasID bool, vec []float32) (uint32, error) {
			inUpsert = s.Admission().Stats().Running
			return 0, nil
		},
		Delete: func(ctx context.Context, id uint32) error {
			inDelete = s.Admission().Stats().Running
			return nil
		},
	})
	if w := postJSON(s, "/v1/upsert", `{"vector":[1]}`); w.Code != http.StatusOK {
		t.Fatalf("upsert: %d", w.Code)
	}
	if w := postJSON(s, "/v1/delete", `{"id":0}`); w.Code != http.StatusOK {
		t.Fatalf("delete: %d", w.Code)
	}
	if inUpsert != 1 || inDelete != 1 {
		t.Fatalf("Running inside the hooks: upsert %d, delete %d, want 1 and 1", inUpsert, inDelete)
	}
	if after := s.Admission().Stats().Running; after != 0 {
		t.Fatalf("Running after the handlers returned = %d, want 0", after)
	}
}

func vectorBody(t testing.TB, key string, v []float32) string {
	b, err := json.Marshal(map[string]any{key: v, "k": 1})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestHookOwnsVector: the slice a hook receives is its own. One retained
// from the first request still reads that request's values after 64 further
// requests of another dimension went through the same pooled buffers.
func TestHookOwnsVector(t *testing.T) {
	var kept [][]float32
	s := newTestServer(t, Config{
		Search: func(ctx context.Context, q []float32, k, ef int) ([]hnsw.Neighbor, error) {
			kept = append(kept, q)
			return nil, nil
		},
		Upsert: func(ctx context.Context, id uint32, hasID bool, vec []float32) (uint32, error) {
			kept = append(kept, vec)
			return 0, nil
		},
	})
	first := []float32{0.5, -1.25, 3, 1e-7, 7, 11, 13}
	postSearch(s, vectorBody(t, "query", first))
	postJSON(s, "/v1/upsert", vectorBody(t, "vector", first))
	other := make([]float32, 33)
	for i := 0; i < 64; i++ {
		for j := range other {
			other[j] = float32(i*100 + j)
		}
		postSearch(s, vectorBody(t, "query", other))
		postJSON(s, "/v1/upsert", vectorBody(t, "vector", other))
	}
	if len(kept) != 2+128 {
		t.Fatalf("hooks ran %d times, want 130", len(kept))
	}
	for _, got := range kept[:2] {
		if fmt.Sprint(got) != fmt.Sprint(first) {
			t.Fatalf("retained vector now reads %v, want %v", got, first)
		}
	}
}

// TestServeConcurrentQueriesDoNotBleed drives Handler() from 8 goroutines
// with distinct queries of varying width through a hook that echoes a
// checksum of q: a pooled buffer shared between two requests in flight shows
// as a wrong checksum, and under -race as a report.
func TestServeConcurrentQueriesDoNotBleed(t *testing.T) {
	checksum := func(q []float32) float64 {
		var sum float64
		for i, v := range q {
			sum += float64(v) * float64(i+1)
		}
		return sum
	}
	s := newTestServer(t, Config{
		Search: func(ctx context.Context, q []float32, k, ef int) ([]hnsw.Neighbor, error) {
			return []hnsw.Neighbor{{ID: uint32(len(q)), Dist: checksum(q)}}, nil
		},
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				q := make([]float32, 1+rng.Intn(300))
				for j := range q {
					q[j] = rng.Float32()*2 - 1
				}
				w := postSearch(s, vectorBody(t, "query", q))
				var resp SearchResponse
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || len(resp.Results) != 1 {
					t.Errorf("goroutine %d request %d: status %d body %q (%v)", g, i, w.Code, w.Body, err)
					return
				}
				if r := resp.Results[0]; int(r.ID) != len(q) || r.Dist != checksum(q) {
					t.Errorf("goroutine %d request %d: answer (%d, %v) is for another query, want (%d, %v)",
						g, i, r.ID, r.Dist, len(q), checksum(q))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// --- differential: recognisers against encoding/json ----------------------

func benchShapedBody(dim int) []byte {
	rng := rand.New(rand.NewSource(int64(dim)))
	q := make([]float32, dim)
	for i := range q {
		q[i] = rng.Float32()
	}
	b, _ := json.Marshal(SearchRequest{Query: q, K: 10, Ef: 64})
	return b
}

func bitsOf(v []float32) string {
	if v == nil {
		return "nil"
	}
	var sb strings.Builder
	for _, f := range v {
		fmt.Fprintf(&sb, "%08x ", math.Float32bits(f))
	}
	return "[" + sb.String() + "]"
}

func FuzzDecodeMatchesJSON(f *testing.F) {
	seeds := []string{
		// serve_test.go, mutate_test.go and a former soak's hostile list
		`{"query":[1,2,3],"k":4}`, "", "{", `{"query":"nope"}`, "\x00\x01garbage",
		`{"query":[]}`, `{"query":[1],"k":-3}`, `{"query":[1],"k":100}`,
		`{"query":[1],"k":4,"ef":2}`, `{"query":[1],"k":4,"ef":1000}`, `{"query":[1,2]}`,
		`{"query":[1],"timeout_ms":20}`, `{"query":[1]}`, `{"query":[1],"panic":true}`,
		`{"query":[1,2],"k":3,"mode":"tiered"}`, `{"query":[1,2],"k":3,"mode":"warp"}`,
		`{"query":[1],"k":1,"mode":"exact"}`, `{"query":[1,2,3],"k":4,"recall_target":0.9}`,
		`{"query":[1,2,3],"k":2,"mode":"exact","recall_target":1}`,
		`{"query":[1],"recall_target":-0.5}`, `{"query":[1],"recall_target":1.5}`,
		`{"query":[1],"recall_target":0}`,
		`{"vector":[1,2,3]}`, `{"id":0,"vector":[4,5,6]}`, `{"id":1}`, `{"vector":[1]}`,
		`{"vector":[]}`, `{}`, `{"id":null}`, `{"id":99}`,
		`{"query":"zap"}`, "\x00\xff\x17garbage", `{"query":[1,2,3],"k":-4}`,
		// the benchmark's shape
		string(benchShapedBody(960)),
		// reordered keys, inner whitespace, number forms
		`{"ef":40,"k":2,"query":[0.5]}`, " {\t\"query\" : [ 1 , 2 ] ,\r\n \"k\" : 3 } \n",
		`{"query":[1e5,-0,0.1e-7,2.5E+07,-1.5e-3,0.000001,123456.789e3]}`,
		`{"query":[01]}`, `{"query":[1.]}`, `{"query":[.5]}`, `{"query":[+1]}`, `{"query":[1e999]}`,
		`{"query":[-]}`, `{"query":[1e]}`, `{"query":[0x10]}`, `{"query":[1_0]}`, `{"query":[Inf]}`,
		`{"query":[1,]}`, `{"query":[,1]}`, `{"query":[1 2]}`, `{"query":[[1]]}`, `{"query":[1`,
		`{"query":[1,null]}`, `{"query":[true]}`, `{"query":["1"]}`,
		`{"query":[1e-46,3.4028235e38,3.4028236e38,1.401298464324817e-45,1e-400]}`,
		`{"query":[0.10000000149011612,16777217,16777217.000000001,8388608.5]}`,
		// keys
		`{"k":1,"k":2}`, `{"Query":[1]}`, `{"query":null}`, `{"qu\u0065ry":[1]}`, `{"query":[1],"extra":1}`,
		`{"query":[1]} x`, `{"query":[1]}{"query":[2]}`, `[{"query":[1]}]`, `null`, `"query"`,
		// strings
		`{"mode":"ex\u0061ct"}`, `{"mode":"a\\b"}`, `{"mode":"é"}`, "{\"mode\":\"a\tb\"}", `{"mode":""}`,
		"{\"mode\":\"\x7f\"}", "{\"mode\":\"\xff\"}", `{"mode":"unterminated`, `{"mode":null}`,
		// integers
		`{"k":999999999999999999}`, `{"k":9223372036854775807}`, `{"k":9223372036854775808}`,
		`{"k":12345678901234567890}`, `{"k":-9223372036854775808}`, `{"k":-0}`, `{"k":00}`,
		`{"k":1.0}`, `{"k":1e2}`, `{"k":-}`, `{"timeout_ms":2147483648}`,
		`{"id":4294967295,"vector":[1]}`, `{"id":4294967296,"vector":[1]}`, `{"id":-0}`, `{"id":-1}`,
		`{"id":1.0}`, `{"timeout_ms":5,"vector":[1],"id":3}`, `{"Vector":[1]}`, `{"id":7,"id":8}`,
		// literals
		`{"panic":false}`, `{"panic":truex}`, `{"panic":tru`, `{"panic":1}`, `{"panic":null}`,
		`{"recall_target":1e400}`, `{"recall_target":0.30000000000000004}`, `{"recall_target":"1"}`,
	}
	for _, c := range wireTable {
		seeds = append(seeds, c.body)
	}
	for _, s := range seeds {
		f.Add(byte(0), []byte(s))
		f.Add(byte(1), []byte(s))
	}
	f.Fuzz(func(t *testing.T, sel byte, body []byte) {
		byJSON := func(v any) {
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(v); err != nil {
				t.Fatalf("recogniser accepted %q, encoding/json says: %v", body, err)
			}
		}
		if sel&1 == 0 {
			var got, want SearchRequest
			if !decodeSearch(body, &got) {
				if got.Query != nil || got.K != 0 || got.Mode != "" {
					t.Fatalf("declined %q but wrote %+v", body, got)
				}
				return
			}
			byJSON(&want)
			if bitsOf(got.Query) != bitsOf(want.Query) || got.K != want.K || got.Ef != want.Ef ||
				got.TimeoutMs != want.TimeoutMs || got.Mode != want.Mode ||
				math.Float64bits(got.RecallTarget) != math.Float64bits(want.RecallTarget) {
				t.Fatalf("body %q:\nrecogniser    %+v %s\nencoding/json %+v %s", body, got, bitsOf(got.Query), want, bitsOf(want.Query))
			}
			return
		}
		var got, want UpsertRequest
		if !decodeUpsert(body, &got) {
			if got.ID != nil || got.Vector != nil || got.TimeoutMs != 0 {
				t.Fatalf("declined %q but wrote %+v", body, got)
			}
			return
		}
		byJSON(&want)
		if (got.ID == nil) != (want.ID == nil) || got.ID != nil && *got.ID != *want.ID ||
			bitsOf(got.Vector) != bitsOf(want.Vector) || got.TimeoutMs != want.TimeoutMs {
			t.Fatalf("body %q:\nrecogniser    %+v %s\nencoding/json %+v %s", body, got, bitsOf(got.Vector), want, bitsOf(want.Vector))
		}
	})
}

// FuzzFloat32MatchesStrconv: for every string the JSON number grammar
// admits, the converter reports an error exactly when
// strconv.ParseFloat(s, 32) does and returns the same bits otherwise.
func FuzzFloat32MatchesStrconv(f *testing.F) {
	for _, s := range []string{
		"0", "-0", "0.0", "-0.000e5", "0e999", "-0e-999", "0.0e99999999999", "1", "-1", "0.1", "1e5", "0.1e-7", "2.5e+07", "2.5E-07",
		"3.4028235e38", "3.4028236e38", "3.4028235677973366e38", "340282356779733661637539395458142568448",
		"1e-46", "1e-45", "1.401298464324817e-45", "7.006492321624085e-46", "1.1754943508222875e-38",
		"1.17549435e-38", "1.17549421e-38", "1e-400", "1e400", "1e22", "1e23", "123456789012345e22",
		"1234567890123456", "999999999999999", "0.000000000000000000000000000001",
		"16777217", "16777217.000000001", "16777216.999999999", "8388608.5", "0.10000000149011612",
		"1e0000000000000000000000001", "1e-0000000000000000000000001", "1e99999999999999999999",
	} {
		f.Add(s)
	}
	// Float32 rounding midpoints, exact and cut short at 9–17 digits: the
	// strings on which converting through a float64 may round twice.
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 300; i++ {
		lo := math.Float32frombits(rng.Uint32() & 0x7f7fffff)
		mid := (float64(lo) + float64(math.Nextafter32(lo, math.MaxFloat32))) / 2
		for prec := 9; prec <= 17; prec++ {
			f.Add(strconv.FormatFloat(mid, 'e', prec-1, 64))
			f.Add(strconv.FormatFloat(mid, 'f', prec, 64))
		}
		f.Add(strconv.FormatFloat(mid, 'f', -1, 64))
		f.Add(strconv.FormatFloat(float64(lo), 'g', -1, 32))
	}
	f.Fuzz(func(t *testing.T, s string) {
		c := cursor{b: []byte(s)}
		n, ok := c.number()
		if !ok || c.i != len(s) {
			return // not a JSON number: the scanner never converts it
		}
		got, gotOK := n.float32()
		want, err := strconv.ParseFloat(s, 32)
		if gotOK != (err == nil) {
			t.Fatalf("%q: converter ok=%v, strconv err=%v", s, gotOK, err)
		}
		if gotOK && math.Float32bits(got) != math.Float32bits(float32(want)) {
			t.Fatalf("%q: converter %08x (%v), strconv %08x (%v)", s,
				math.Float32bits(got), got, math.Float32bits(float32(want)), float32(want))
		}
	})
}

// FuzzFloatsMatchStrconv is FuzzFloat32MatchesStrconv through the array
// scanner: the number, repeated in an array whose elements all have
// plainWindow bytes after them, so every one but the last may take the word
// path, converts element by element as strconv.ParseFloat(s, 32) does, and
// the array is declined exactly when strconv reports an error.
func FuzzFloatsMatchStrconv(f *testing.F) {
	for _, s := range []string{
		"0", "-0", "0.0", "-0.0", "7", "-255", "1234567", "12345678", "0.5", "-0.25", "0.6046602",
		"0.0000000000000001", "0.12345678", "0.123456789", "0.1234567890123456", "0.12345678901234567",
		"1234567.123456789012", "9999999.999999999999", "1.5e-3", "1e22", "1e-22", "1e23", "1e999",
		"0.000001", "0.10000000149011612", "16777217", "8388608.5", "01", "1.", "-",
	} {
		f.Add(s)
	}
	rng := rand.New(rand.NewSource(52))
	for i := 0; i < 100; i++ {
		lo := float32(rng.Float64() * math.Pow(10, float64(rng.Intn(12)-5)))
		mid := (float64(lo) + float64(math.Nextafter32(lo, math.MaxFloat32))) / 2
		f.Add(strconv.FormatFloat(mid, 'f', 8+rng.Intn(10), 64))
	}
	f.Fuzz(func(t *testing.T, s string) {
		c := cursor{b: []byte(s)}
		if _, ok := c.number(); !ok || c.i != len(s) {
			return // not a JSON number: the scanner never converts it
		}
		want, err := strconv.ParseFloat(s, 32)
		body := "[" + strings.Repeat(s+",", 4) + s + "]" + strings.Repeat(" ", plainWindow)
		c = cursor{b: []byte(body)}
		got, ok := c.floats()
		if ok != (err == nil) {
			t.Fatalf("%q: scanner ok=%v, strconv err=%v", s, ok, err)
		}
		if !ok {
			return
		}
		if len(got) != 5 || c.i != len(body)-plainWindow {
			t.Fatalf("%q: %d elements, cursor at %d of %q", s, len(got), c.i, body)
		}
		for k, v := range got {
			if math.Float32bits(v) != math.Float32bits(float32(want)) {
				t.Fatalf("%q element %d: scanner %08x (%v), strconv %08x (%v)", s, k,
					math.Float32bits(v), v, math.Float32bits(float32(want)), float32(want))
			}
		}
	})
}

// appendElement appends one array element in a form drawn from rng: every
// form a client sends, and the edges of the word path around them.
func appendElement(dst []byte, rng *rand.Rand) []byte {
	digits := func(n int) {
		for ; n > 0; n-- {
			dst = append(dst, byte('0'+rng.Intn(10)))
		}
	}
	sign := func() {
		if rng.Intn(2) == 0 {
			dst = append(dst, '-')
		}
	}
	switch rng.Intn(8) {
	case 0: // float32 shortest form, as encoding/json writes it
		v := rng.Float32()*2 - 1
		switch rng.Intn(3) {
		case 0:
			v *= float32(math.Pow(10, float64(rng.Intn(16)-8)))
		case 1:
			v = math.Float32frombits(rng.Uint32()&^(0xff<<23) | uint32(rng.Intn(255))<<23)
		}
		abs := math.Abs(float64(v))
		format := byte('f')
		if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
			format = 'e'
		}
		dst = strconv.AppendFloat(dst, float64(v), format, -1, 32)
	case 1: // 0. and 1–20 digits
		sign()
		dst = append(dst, "0."...)
		digits(1 + rng.Intn(20))
	case 2: // an integer of 1–8 digits, -0 among them
		sign()
		if n := 1 + rng.Intn(8); rng.Intn(8) == 0 {
			dst = append(dst, '0')
		} else {
			dst = append(dst, byte('1'+rng.Intn(9)))
			digits(n - 1)
		}
	case 3: // 1–9 integer digits and 1–18 fraction digits
		sign()
		dst = append(dst, byte('1'+rng.Intn(9)))
		digits(rng.Intn(9))
		dst = append(dst, '.')
		digits(1 + rng.Intn(18))
	case 4: // exponents at ±22 and ±23
		sign()
		dst = append(dst, byte('1'+rng.Intn(9)))
		digits(rng.Intn(9))
		if rng.Intn(2) == 0 {
			dst = append(dst, '.')
			digits(1 + rng.Intn(6))
		}
		dst = append(dst, "eE"[rng.Intn(2)])
		dst = append(dst, []string{"", "+", "-"}[rng.Intn(3)]...)
		dst = strconv.AppendInt(dst, int64(22+rng.Intn(2)), 10)
	case 5: // a float32 rounding midpoint cut at 1–18 fraction digits
		sign()
		lo := float32(rng.Float64() * math.Pow(10, float64(rng.Intn(12)-5)))
		mid := (float64(lo) + float64(math.Nextafter32(lo, math.MaxFloat32))) / 2
		dst = strconv.AppendFloat(dst, mid, 'f', 1+rng.Intn(18), 64)
	default: // GIST's and GloVe's everyday component
		dst = strconv.AppendFloat(dst, float64(rng.Float32()*2-1), 'f', -1, 32)
	}
	return dst
}

// TestFloatsMatchJSON holds the number-array scanner, word path and
// fallback, to encoding/json on 100 000 seeded /v1/search and /v1/upsert
// bodies of 1–40 elements in every form appendElement draws, with
// whitespace between elements and bodies that end a few bytes after the
// array. Every body is canonical, so the recogniser must accept it.
func TestFloatsMatchJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	ws := []string{"", "", "", " ", "\n", " \t "}
	var body []byte
	for i := 0; i < 100_000; i++ {
		upsert := i%2 == 1
		body = body[:0]
		if upsert {
			body = append(body, `{"vector":[`...)
		} else {
			body = append(body, `{"query":[`...)
		}
		for k, n := 0, 1+rng.Intn(40); k < n; k++ {
			if k > 0 {
				body = append(body, ws[rng.Intn(len(ws))]...)
				body = append(body, ',')
				body = append(body, ws[rng.Intn(len(ws))]...)
			}
			body = appendElement(body, rng)
		}
		body = append(body, ']')
		switch rng.Intn(3) {
		case 0:
			body = append(body, '}')
		case 1:
			if upsert {
				body = append(body, `,"timeout_ms":5}`...)
			} else {
				body = append(body, `,"k":10,"ef":64}`...)
			}
		default:
			body = append(body, "}                                "...)
		}
		if upsert {
			var got, want UpsertRequest
			if !decodeUpsert(body, &got) {
				t.Fatalf("declined canonical body %q", body)
			}
			if err := json.Unmarshal(body, &want); err != nil {
				t.Fatalf("%q: %v", body, err)
			}
			if bitsOf(got.Vector) != bitsOf(want.Vector) || got.TimeoutMs != want.TimeoutMs {
				t.Fatalf("body %q:\nrecogniser    %s\nencoding/json %s", body, bitsOf(got.Vector), bitsOf(want.Vector))
			}
			continue
		}
		var got, want SearchRequest
		if !decodeSearch(body, &got) {
			t.Fatalf("declined canonical body %q", body)
		}
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("%q: %v", body, err)
		}
		if bitsOf(got.Query) != bitsOf(want.Query) || got.K != want.K || got.Ef != want.Ef {
			t.Fatalf("body %q:\nrecogniser    %s\nencoding/json %s", body, bitsOf(got.Query), bitsOf(want.Query))
		}
	}
}

// TestPlainTakesOnlyPlainElements pins which elements the word path
// converts (spanning the element and its comma) and which it leaves to
// number.
func TestPlainTakesOnlyPlainElements(t *testing.T) {
	pad := strings.Repeat(" ", plainWindow)
	for _, c := range []struct {
		elem string
		take bool
	}{
		{"0,", true}, {"-0,", true}, {"7,", true}, {"1234567,", true}, {"-1234567,", true},
		{"0.5,", true}, {"-0.000,", true}, {"0.6046602,", true}, {"0.12345678,", true},
		{"0.1234567890123456,", true}, {"1234567.12345678,", true}, {"9.5,", true},
		{"12345678,", false},              // eight integer digits
		{"0.12345678901234567,", false},   // seventeen fraction digits
		{"1234567.1234567890123,", false}, // twenty digits
		{"1234567.123456789012,", false},  // nineteen digits above 2^53
		{"9007199.254740993,", false},     // sixteen digits above 2^53
		{"16777217.5,", false}, {"01,", false}, {"00.5,", false}, {"1.,", false}, {".5,", false},
		{"1e5,", false}, {"1 ,", false}, {" 1,", false}, {"1]", false}, {"-,", false},
		{"+1,", false}, {"0x1,", false},
		{"0.5000000298023224,", false}, // a float32 midpoint: left to number
	} {
		var f [1]float32
		k, n := plain([]byte(c.elem+pad), 0, f[:])
		if (k == 1) != c.take {
			t.Errorf("%q: plain converted %d, want take=%v", c.elem, k, c.take)
			continue
		}
		if k == 0 {
			if n != 0 {
				t.Errorf("%q: declined but moved to %d", c.elem, n)
			}
			continue
		}
		want, err := strconv.ParseFloat(strings.TrimSuffix(c.elem, ","), 32)
		if err != nil || math.Float32bits(f[0]) != math.Float32bits(float32(want)) || n != len(c.elem) {
			t.Errorf("%q: plain %v, next element at %d, strconv %v (%v)", c.elem, f[0], n, float32(want), err)
		}
	}
	// Too close to the end of the body: declined whatever the element.
	if k, _ := plain([]byte("0.5,"+pad[:plainWindow-5]), 0, make([]float32, 1)); k != 0 {
		t.Errorf("plain read an element with fewer than %d bytes left", plainWindow)
	}
}

// --- encoder ---------------------------------------------------------------

// TestAppendSearchOKMatchesJSON: the encoder's bytes are encoding/json's for
// random ids and random finite float64 bit patterns, and it declines what
// encoding/json refuses.
func TestAppendSearchOKMatchesJSON(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 9.999999e-7, 1e21, 9.99999999e20, -1e21,
		5e-324, 2.2250738585072014e-308, math.MaxFloat64, 1e-9, 1.5e-10, 1e100, 0.1, 1.0 / 3}
	rng := rand.New(rand.NewSource(4))
	var buf []byte
	for round := 0; round < 2000; round++ {
		nn := make([]hnsw.Neighbor, rng.Intn(12))
		for i := range nn {
			d := math.Float64frombits(rng.Uint64())
			switch {
			case math.IsNaN(d) || math.IsInf(d, 0) || rng.Intn(4) == 0:
				d = special[rng.Intn(len(special))]
			case rng.Intn(2) == 0:
				d = float64(rng.Float32()) * 100 // what a squared L2 looks like
			}
			nn[i] = hnsw.Neighbor{ID: rng.Uint32() >> uint(rng.Intn(32)), Dist: d}
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(SearchResponse{Results: toResults(nn)}); err != nil {
			t.Fatal(err)
		}
		got, ok := appendSearchOK(buf[:0], nn)
		if !ok || string(got) != want.String() {
			t.Fatalf("neighbors %v:\n got %q (ok=%v)\nwant %q", nn, got, ok, want.String())
		}
		buf = got
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, ok := appendSearchOK(nil, []hnsw.Neighbor{{ID: 1, Dist: 1}, {ID: 2, Dist: bad}}); ok {
			t.Fatalf("encoder accepted a %v distance", bad)
		}
	}
	// What encoding/json does with those stays what the client sees.
	s := newTestServer(t, Config{
		Search: func(context.Context, []float32, int, int) ([]hnsw.Neighbor, error) {
			return []hnsw.Neighbor{{ID: 1, Dist: math.NaN()}}, nil
		},
	})
	if w := postSearch(s, `{"query":[1]}`); w.Code != http.StatusOK || w.Body.Len() != 0 {
		t.Fatalf("NaN distance: status %d body %q, want the parent's 200 with an empty body", w.Code, w.Body)
	}
}

// profileBody is a /v1/search body as bench/ sends one for the profile's
// first query: json.Marshal of the query at k 10, ef 64.
func profileBody(tb testing.TB, profile string) (body []byte, dim int) {
	ds := dataset.Generate(dataset.ProfileByName(profile), 1, 1, 52)
	body, err := json.Marshal(SearchRequest{Query: ds.Queries[0], K: 10, Ef: 64})
	if err != nil {
		tb.Fatal(err)
	}
	return body, len(ds.Queries[0])
}

// BenchmarkDecodeSearch is the decode alone, per body and per component,
// on the three profiles the served workloads send: GIST's 960 components
// in [0, 1), GloVe's 100 signed ones, SIFT's 128 integers.
func BenchmarkDecodeSearch(b *testing.B) {
	for _, profile := range []string{"GIST", "GloVe", "SIFT"} {
		b.Run(profile, func(b *testing.B) {
			body, dim := profileBody(b, profile)
			var req SearchRequest
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !decodeSearch(body, &req) {
					b.Fatal("canonical body declined")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*dim), "ns/component")
		})
	}
}

// TestWireAllocs: decoding the benchmark's widest body costs the vector and
// nothing else, and encoding into a warmed buffer costs nothing.
func TestWireAllocs(t *testing.T) {
	body := benchShapedBody(960)
	var req SearchRequest
	if n := testing.AllocsPerRun(100, func() {
		if !decodeSearch(body, &req) {
			t.Fatal("canonical body declined")
		}
	}); n != 1 {
		t.Errorf("decodeSearch: %v allocs per 960-component body, want 1", n)
	}
	nn := echoNeighbors(req.Query, 10, 64)
	buf, _ := appendSearchOK(nil, nn)
	if n := testing.AllocsPerRun(100, func() { buf, _ = appendSearchOK(buf[:0], nn) }); n != 0 {
		t.Errorf("appendSearchOK: %v allocs on a warmed buffer, want 0", n)
	}
}
