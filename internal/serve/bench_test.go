//go:build !race

package serve

// The request envelope's benchmark and its allocation budget. Not built
// under the race detector: the race runtime makes sync.Pool intentionally
// nondeterministic and instruments allocations, so the count means nothing
// there.

import (
	"bytes"
	"context"
	"fmt"
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

// serveSearchOnce returns the body BenchmarkServeSearch times and
// TestServeSearchAllocs counts: one canonical dim-component /v1/search
// through Handler() with the search itself stubbed out — the request
// envelope's own cost and allocations — and that request body's length.
func serveSearchOnce(tb testing.TB, dim int) (once func(), bodyLen int) {
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
	h := s.Handler()
	body := benchShapedBody(dim)
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
	}, len(body)
}

var serveSearchDims = []int{128, 960}

func BenchmarkServeSearch(b *testing.B) {
	for _, dim := range serveSearchDims {
		b.Run(fmt.Sprintf("dim%d", dim), func(b *testing.B) {
			once, bodyLen := serveSearchOnce(b, dim)
			b.SetBytes(int64(bodyLen))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				once()
			}
		})
	}
}

// TestServeSearchAllocs holds the request envelope to its budget: 14
// allocations per search at either width (the vector is one of them).
func TestServeSearchAllocs(t *testing.T) {
	for _, dim := range serveSearchDims {
		once, _ := serveSearchOnce(t, dim)
		once() // warm the buffer pool
		if n := testing.AllocsPerRun(100, once); n > 14 {
			t.Errorf("dim %d: %.1f allocs per search, budget 14", dim, n)
		}
	}
}
