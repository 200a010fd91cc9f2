//go:build !race

package serve

// The request envelope's benchmark and its allocation budget. Not built
// under the race detector: the race runtime makes sync.Pool intentionally
// nondeterministic and instruments allocations, so the count means nothing
// there.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"ansmet/internal/hnsw"
)

// benchWriter is a reusable in-memory http.ResponseWriter.
type benchWriter struct {
	h    http.Header
	body bytes.Buffer
	code int
}

func (w *benchWriter) Header() http.Header         { return w.h }
func (w *benchWriter) WriteHeader(code int)        { w.code = code }
func (w *benchWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

// benchBody is a request body that can be rewound.
type benchBody struct{ *bytes.Reader }

func (benchBody) Close() error { return nil }

// stubServer is a server whose search answers ten fixed neighbours at once.
func stubServer(tb testing.TB) *Server {
	nn := make([]hnsw.Neighbor, 10)
	for i := range nn {
		nn[i] = hnsw.Neighbor{ID: uint32(1000 + i), Dist: 0.25 * float64(i+1)}
	}
	s, err := New(Config{
		SearchPrecision: func(context.Context, []float32, int, int, string, float64) (Outcome, error) {
			return Outcome{Neighbors: nn, Route: "host"}, nil
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// serveSearchOnce returns the body BenchmarkServeSearch times and
// TestServeSearchAllocs counts: one canonical /v1/search, body, through
// Handler() with the search itself stubbed out — the request envelope's own
// cost and allocations.
func serveSearchOnce(tb testing.TB, body []byte) (once func()) {
	h := stubServer(tb).Handler()
	rd := benchBody{bytes.NewReader(body)}
	req := httptest.NewRequest("POST", "/v1/search", nil)
	req.ContentLength = int64(len(body))
	w := &benchWriter{h: http.Header{}}
	return func() {
		rd.Reset(body)
		req.Body = rd
		w.body.Reset()
		clear(w.h)
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			tb.Fatalf("status %d: %s", w.code, w.body.Bytes())
		}
	}
}

// serveSearchArm is one of BenchmarkServeSearch's bodies: dim components of
// one shape. The plain arms are benchShapedBody's, every component in
// [0, 1) as GIST sends them; "ints" are integers 0–255, as SIFT sends them,
// and "signed" components lie in (−1, 1), as GloVe sends them.
type serveSearchArm struct {
	shape string
	dim   int
}

func (a serveSearchArm) name() string {
	if a.shape == "" {
		return fmt.Sprintf("dim%d", a.dim)
	}
	return fmt.Sprintf("%s-dim%d", a.shape, a.dim)
}

func (a serveSearchArm) body() []byte {
	if a.shape == "" {
		return benchShapedBody(a.dim)
	}
	rng := rand.New(rand.NewSource(int64(a.dim)))
	q := make([]float32, a.dim)
	for i := range q {
		if a.shape == "ints" {
			q[i] = float32(rng.Intn(256))
		} else {
			q[i] = rng.Float32()*2 - 1
		}
	}
	b, _ := json.Marshal(SearchRequest{Query: q, K: 10, Ef: 64})
	return b
}

var serveSearchArms = []serveSearchArm{
	{"", 128}, {"", 960}, {"ints", 128}, {"ints", 960}, {"signed", 128}, {"signed", 960},
}

func BenchmarkServeSearch(b *testing.B) {
	for _, arm := range serveSearchArms {
		b.Run(arm.name(), func(b *testing.B) {
			body := arm.body()
			once := serveSearchOnce(b, body)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				once()
			}
		})
	}
}

// TestServeSearchAllocs holds the request envelope to its budget: 14
// allocations per search in every arm (the vector is one of them).
func TestServeSearchAllocs(t *testing.T) {
	for _, arm := range serveSearchArms {
		once := serveSearchOnce(t, arm.body())
		once() // warm the buffer pool
		if n := testing.AllocsPerRun(100, once); n > 14 {
			t.Errorf("%s: %.1f allocs per search, budget 14", arm.name(), n)
		}
	}
}

// BenchmarkServeSearchSplit times the layers of one plain-arm search of
// BenchmarkServeSearch one at a time: read (the body through
// http.MaxBytesReader into a warm buffer), decode (decodeSearch), admission
// (Acquire and release of a free slot), hook (the request's context and the
// stubbed search) and encode (writeSearchOK). What the whole handler costs
// beyond their sum is the routing, checks and headers around them.
func BenchmarkServeSearchSplit(b *testing.B) {
	for _, arm := range serveSearchArms {
		if arm.shape != "" {
			continue
		}
		s := stubServer(b)
		body := arm.body()
		rd := bytes.NewReader(body)
		req := httptest.NewRequest("POST", "/v1/search", nil)
		w := &benchWriter{h: http.Header{}}
		in, out := make([]byte, 0, len(body)+1), []byte(nil)
		var sr SearchRequest
		if !decodeSearch(body, &sr) {
			b.Fatal("canonical body declined")
		}
		o, _ := s.cfg.SearchPrecision(context.Background(), sr.Query, sr.K, sr.Ef, sr.Mode, sr.RecallTarget)
		nn := o.Neighbors
		for _, layer := range []struct {
			name string
			run  func()
		}{
			{"read", func() {
				rd.Reset(body)
				in, _ = readBody(http.MaxBytesReader(w, benchBody{rd}, s.cfg.MaxBodyBytes), in, int64(len(body))+1)
			}},
			{"decode", func() { decodeSearch(body, &sr) }},
			{"admission", func() {
				release, _ := s.adm.Acquire(req.Context())
				release()
			}},
			{"hook", func() {
				ctx, cancel, stop := s.requestCtx(req, sr.TimeoutMs)
				_, _ = s.cfg.SearchPrecision(ctx, sr.Query, sr.K, sr.Ef, sr.Mode, sr.RecallTarget)
				stop()
				cancel()
			}},
			{"encode", func() {
				w.body.Reset()
				clear(w.h)
				writeSearchOK(w, &out, nn)
			}},
		} {
			b.Run(fmt.Sprintf("%s/%s", arm.name(), layer.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					layer.run()
				}
			})
		}
	}
}
