package ndp

import (
	"testing"

	"ansmet/internal/vecmath"
)

// TestSetQueryWaitsForEveryChunk: on a configure whose query takes three
// chunks, any chunk but the last to arrive leaves the query unset and runs
// no waiting task, whatever the order, and the last one finalizes the query
// as the host encoded it.
func TestSetQueryWaitsForEveryChunk(t *testing.T) {
	cfg := Config{Elem: vecmath.Float32, Dim: 40, Metric: vecmath.L2, Nc: 4, Tc: 2, Nf: 2}
	q := make([]float32, cfg.Dim)
	for d := range q {
		q[d] = float32(d) + 0.5
	}
	chunks, err := EncodeQueryChunks(cfg.Elem, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 3 {
		t.Fatalf("a %d-dim %v query takes %d chunks, want 3", cfg.Dim, cfg.Elem, len(chunks))
	}
	tasks, count, err := EncodeSetSearch([]Task{{Addr: 0, Threshold: 1e30}})
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range [][]int{{2, 0, 1}, {2, 1, 0}, {0, 2, 1}, {1, 0, 2}, {0, 1, 2}, {1, 2, 0}} {
		u := NewUnit(SliceRank{Bytes: make([]byte, 1<<12), VectorBytes: 1 << 12})
		if err := u.Configure(EncodeConfigure(cfg)); err != nil {
			t.Fatal(err)
		}
		if err := u.SetSearch(0, count, tasks); err != nil {
			t.Fatal(err)
		}
		qs := &u.qshrs[0]
		for i, seq := range order {
			if err := u.SetQuery(0, seq, chunks[seq]); err != nil {
				t.Fatal(err)
			}
			if last := i == len(order)-1; qs.haveQ != last || qs.done != last {
				t.Fatalf("order %v: after chunk %d, haveQ %v and tasks run %v", order, seq, qs.haveQ, qs.done)
			}
		}
		for d := range q {
			if qs.query[d] != q[d] {
				t.Fatalf("order %v: query[%d] = %v, sent %v", order, d, qs.query[d], q[d])
			}
		}
	}
}
