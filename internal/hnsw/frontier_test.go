package hnsw

import (
	"bytes"
	"math"
	"testing"

	"ansmet/internal/stats"
)

// heapPair is the beam the frontier replaces: a min-heap of candidates and
// a max-heap of the ef best passing results, with the pop rule of the
// search loop.
type heapPair struct {
	cand, results Heap
	ef            int
}

func (h *heapPair) push(n Neighbor, pass bool) {
	h.cand.Push(n)
	if !pass {
		return
	}
	if h.results.Len() < h.ef {
		h.results.Push(n)
	} else if n.Less(h.results.Top()) {
		h.results.ReplaceTop(n)
	}
}

func (h *heapPair) threshold() float64 {
	if h.results.Len() >= h.ef {
		return h.results.Top().Dist
	}
	return math.Inf(1)
}

// Outcomes of one pop: an expanded candidate, one beyond the worst result
// (popped and dropped), or none left.
const (
	popExpanded = iota
	popBeyond
	popEmpty
)

func (h *heapPair) pop() (uint32, int) {
	if h.cand.Len() == 0 {
		return 0, popEmpty
	}
	c := h.cand.Pop()
	if h.results.Len() >= h.ef && c.Dist > h.results.Top().Dist {
		return 0, popBeyond
	}
	return c.ID, popExpanded
}

func (h *heapPair) answer(k int) []Neighbor {
	var rs Heap
	rs.Max = true
	rs.Init(append([]Neighbor(nil), h.results.items...))
	out := rs.Sorted(nil)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// frontierPop is heapPair.pop on the frontier, as SearchCancelInto reads it.
func frontierPop(f *frontier) (uint32, int) {
	if id, ok := f.next(); ok {
		return id, popExpanded
	}
	if f.dead > 0 {
		f.dead--
		return 0, popBeyond
	}
	return 0, popEmpty
}

// checkFrontier drives a frontier and a heapPair with one stream of
// operations, one byte each: b%4 == 0 expands the next candidate, anything
// else admits a new id at one of five distances (so almost every
// comparison is a tie broken by id) that passes the filter two times in
// three. After every step both must agree on whether a candidate is left,
// on the threshold, on what a pop yields, and on the answer at k = ef and
// at a smaller k.
func checkFrontier(t *testing.T, ef int, ops []byte) {
	t.Helper()
	var f frontier
	f.reset(ef)
	h := heapPair{ef: ef}
	h.results.Max = true
	k := (ef + 1) / 2
	for i, b := range ops {
		if b%4 == 0 {
			wantID, want := h.pop()
			gotID, got := frontierPop(&f)
			if got != want || gotID != wantID {
				t.Fatalf("ef=%d step %d: frontier pops (%d, outcome %d), heaps (%d, outcome %d)", ef, i, gotID, got, wantID, want)
			}
		} else {
			// An odd multiplier maps the step to a unique, scrambled id.
			n := Neighbor{ID: uint32(i) * 2654435761, Dist: float64(b / 4 % 5)}
			pass := b/20%3 != 0
			h.push(n, pass)
			f.push(n.ID, n.Dist, pass)
		}
		if got, want := f.pending(), h.cand.Len() > 0; got != want {
			t.Fatalf("ef=%d step %d: frontier pending %v, heaps hold %d candidates", ef, i, got, h.cand.Len())
		}
		if got, want := f.threshold(), h.threshold(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ef=%d step %d: threshold %v, heaps %v", ef, i, got, want)
		}
		for _, kk := range []int{ef, k} {
			got, want := f.answer(kk, nil), h.answer(kk)
			if len(got) != len(want) {
				t.Fatalf("ef=%d k=%d step %d: %d answers, heaps %d", ef, kk, i, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("ef=%d k=%d step %d: answer %d is %+v, heaps %+v", ef, kk, i, j, got[j], want[j])
				}
			}
		}
	}
}

// TestFrontierMatchesHeaps: on random streams of admissions and
// expansions, the frontier expands what the two heaps pop, reports the
// same threshold and the same answer after every step — across beam
// widths, with ties and failing entries everywhere.
func TestFrontierMatchesHeaps(t *testing.T) {
	for _, ef := range []int{1, 2, 3, 7, 16, 64} {
		for seed := uint64(1); seed <= 20; seed++ {
			r := stats.NewRNG(seed)
			ops := make([]byte, 1500)
			for i := range ops {
				ops[i] = byte(r.Intn(256))
			}
			checkFrontier(t, ef, ops)
		}
	}
}

// FuzzFrontierMatchesHeaps is TestFrontierMatchesHeaps over fuzzed
// streams and beam widths.
func FuzzFrontierMatchesHeaps(f *testing.F) {
	f.Add(uint8(1), []byte{1, 5, 9, 0, 0, 13, 0})
	f.Add(uint8(3), []byte{0x41, 0x15, 0x99, 0x00, 0x2d, 0x00, 0x71, 0x3e, 0x00, 0x00})
	f.Add(uint8(8), []byte("frontier vs heaps, with ties"))
	f.Fuzz(func(t *testing.T, ef uint8, ops []byte) {
		if ef == 0 {
			t.Skip()
		}
		checkFrontier(t, int(ef), ops)
	})
}

// pushAllDists are the distances checkPushAll draws from: ties everywhere,
// both zeros, negatives (inner product), a span that overflows and one too
// narrow to scale into buckets.
var pushAllDists = []float64{0, math.Copysign(0, -1), 1, 1.5, 2, 2, 3, 7, -2, 1e300, -1e300, math.MaxFloat64, math.Inf(1), 5e-324}

// checkPushAll builds one state on two frontiers from prefix, one operation
// per byte as in checkFrontier (b%4 == 0 expands, anything else pushes),
// then admits the batch, one entry per byte, by push in byte order on one
// and by one pushAll of a shuffle of it on the other. Both must hold the same items (distances bitwise), pass,
// worst and dead, and expand the same sequence to the end.
func checkPushAll(t *testing.T, ef int, prefix, batch []byte) {
	t.Helper()
	var f, g frontier
	f.reset(ef)
	g.reset(ef)
	id := func(i int) uint32 { return uint32(i) * 2654435761 } // unique, scrambled
	for i, b := range prefix {
		if b%4 == 0 {
			frontierPop(&f)
			frontierPop(&g)
			continue
		}
		d, pass := pushAllDists[int(b/4)%len(pushAllDists)], b/64%3 != 0
		f.push(id(i), d, pass)
		g.push(id(i), d, pass)
	}
	in := make([]frontierEntry, len(batch))
	perm := stats.NewRNG(uint64(len(prefix))<<32 | uint64(len(batch))).Perm(len(batch))
	for i, b := range batch {
		e := frontierEntry{dist: pushAllDists[int(b)%len(pushAllDists)], id: id(len(prefix) + i), pass: b/32%4 != 0}
		f.push(e.id, e.dist, e.pass)
		in[perm[i]] = e
	}
	g.pushAll(in)

	if len(f.items) != len(g.items) {
		t.Fatalf("ef=%d: pushes hold %d items, pushAll %d", ef, len(f.items), len(g.items))
	}
	for i, e := range f.items {
		o := g.items[i]
		if math.Float64bits(e.dist) != math.Float64bits(o.dist) || e.id != o.id || e.pass != o.pass || e.expanded != o.expanded {
			t.Fatalf("ef=%d: item %d is %+v after pushes, %+v after pushAll", ef, i, e, o)
		}
	}
	if f.pass != g.pass || f.worst != g.worst || f.dead != g.dead {
		t.Fatalf("ef=%d: pushes leave pass %d worst %d dead %d, pushAll %d %d %d", ef, f.pass, f.worst, f.dead, g.pass, g.worst, g.dead)
	}
	for step := 0; ; step++ {
		wantID, want := frontierPop(&f)
		gotID, got := frontierPop(&g)
		if got != want || gotID != wantID {
			t.Fatalf("ef=%d: expansion %d is (%d, outcome %d) after pushAll, (%d, outcome %d) after pushes", ef, step, gotID, got, wantID, want)
		}
		if want == popEmpty {
			break
		}
	}
}

// TestPushAllMatchesPushes: one pushAll of a random batch, small and past
// the bucketed sort's threshold, onto a random state leaves the frontier
// as pushing the batch entry by entry does.
func TestPushAllMatchesPushes(t *testing.T) {
	// A batch past the threshold whose span, 5e-324, is too narrow to scale.
	checkPushAll(t, 4, []byte{1, 2, 0}, bytes.Repeat([]byte{42, 55}, 10))
	for _, ef := range []int{1, 2, 7, 16, 64} {
		for seed := uint64(1); seed <= 40; seed++ {
			r := stats.NewRNG(seed)
			prefix := make([]byte, r.Intn(200))
			batch := make([]byte, r.Intn(150))
			for i := range prefix {
				prefix[i] = byte(r.Intn(256))
			}
			for i := range batch {
				batch[i] = byte(r.Intn(256))
			}
			checkPushAll(t, ef, prefix, batch)
		}
	}
}

// FuzzPushAllMatchesPushes is TestPushAllMatchesPushes over fuzzed states,
// batches and beam widths.
func FuzzPushAllMatchesPushes(f *testing.F) {
	f.Add(uint8(1), []byte{1, 5, 0}, []byte{2, 3, 4})
	f.Add(uint8(3), []byte{0x41, 0x15, 0x99, 0x00, 0x2d}, []byte("ties on both sides of the worst"))
	f.Add(uint8(8), []byte("a state"), []byte("a batch of more than sixteen entries, bucketed"))
	f.Fuzz(func(t *testing.T, ef uint8, prefix, batch []byte) {
		if ef == 0 {
			t.Skip()
		}
		checkPushAll(t, int(ef), prefix, batch)
	})
}
