package hnsw

import (
	"math"
	"slices"
)

// frontier is the beam of a search's base layer and of the build's search
// on every layer (searchLayerExact): one list of candidates in ascending
// (Dist, ID) order, each flagged as passing the search's filter and as
// expanded. It stands in for the textbook pair of a min-heap of candidates
// and a max-heap of the ef best passing results, and answers exactly as
// that pair does — the same expansion order, the same hop thresholds, the
// same results — without a final sort:
//
//   - the result set is the first ef passing entries, and its worst, the
//     ef-th, is the rejection threshold;
//   - the next candidate is the first unexpanded entry, found from a cursor
//     that moves back when an insert lands before it;
//   - the answer is the first k passing entries, already in order.
//
// Once ef passing entries exist the worst distance only falls, so an entry
// beyond it can never be expanded: the pair would pop it only to declare
// the search converged. The frontier drops such entries and counts the
// unexpanded ones in dead, which is all the loop needs to stop where the
// pair stops (see SearchCancelInto). Everything at or below the worst
// distance stays: failing entries, which the pair still expands, and
// passing ones evicted from the result set by a newcomer at an equal
// distance.
type frontier struct {
	items  []frontierEntry
	ef     int
	pass   int             // passing entries held
	worst  int             // index of the ef-th passing entry, -1 while there are fewer
	cursor int             // every entry before it is expanded
	dead   int             // unexpanded candidates dropped beyond the worst
	tmp    []frontierEntry // sortEntries' bucketed copy
	starts []int32         // and its bucket starts
}

// frontierEntry is a Neighbor with its two flags, packed into 16 bytes so
// an insert's shift moves no more than the Neighbors would.
type frontierEntry struct {
	dist     float64
	id       uint32
	pass     bool
	expanded bool
}

// reset empties the frontier for a search with beam width ef (>= 1).
func (f *frontier) reset(ef int) {
	*f = frontier{items: f.items[:0], ef: ef, worst: -1, tmp: f.tmp, starts: f.starts}
}

// threshold is the hop's rejection threshold: the worst result's distance
// once there are ef results, +Inf before.
func (f *frontier) threshold() float64 {
	if f.worst < 0 {
		return math.Inf(1)
	}
	return f.items[f.worst].dist
}

// push admits candidate (id, d); pass says whether it may be a result.
func (f *frontier) push(id uint32, d float64, pass bool) {
	if f.worst >= 0 && d > f.items[f.worst].dist {
		f.dead++
		return
	}
	// Binary search for the first entry above (d, id); ids are unique.
	lo, hi := 0, len(f.items)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if e := &f.items[m]; e.dist < d || (e.dist == d && e.id < id) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	f.items = append(f.items, frontierEntry{})
	copy(f.items[lo+1:], f.items[lo:])
	f.items[lo] = frontierEntry{dist: d, id: id, pass: pass}
	if lo < f.cursor {
		f.cursor = lo
	}
	if !pass {
		if f.worst >= lo {
			f.worst++
		}
		return
	}
	f.pass++
	var w int
	switch {
	case f.worst < 0:
		if f.pass < f.ef {
			return
		}
		w = len(f.items) - 1 // the result set just filled: its worst is the last passing entry
	case lo <= f.worst:
		w = f.worst // the old worst, now at f.worst+1, leaves the result set
	default:
		return // passing at the worst's distance, behind it: not a result
	}
	for !f.items[w].pass {
		w--
	}
	f.worst = w
	f.trim()
}

// pushAll admits a hop's candidates at once, leaving the state that pushing
// them one by one leaves in any order: the ef-th passing entry of the union,
// with everything at or below its distance held and everything beyond it
// dropped, is the same whichever arrives first, and so are pass, dead and
// the expansion order. It sorts in (sortEntries) and merges it into the
// items in one backward pass, then finds the worst and trims once. The build
// keeps push: its strict admission depends on the order (searchLayerExact).
func (f *frontier) pushAll(in []frontierEntry) {
	if len(in) == 0 {
		return
	}
	in = f.sortEntries(in)
	n := len(f.items)
	f.items = slices.Grow(f.items, len(in))[:n+len(in)]
	i, j := n-1, len(in)-1
	for k := len(f.items) - 1; j >= 0; k-- {
		if i >= 0 && in[j].less(&f.items[i]) {
			f.items[k] = f.items[i]
			i--
		} else {
			f.items[k] = in[j]
			j--
		}
	}
	// Everything up to items[i] stayed put; the first newcomer is next.
	f.cursor = min(f.cursor, i+1)
	for _, e := range in {
		if e.pass {
			f.pass++
		}
	}
	if f.pass < f.ef {
		return
	}
	if f.pass == len(f.items) {
		f.worst = f.ef - 1 // every entry passes, so the ef-th passing one is entry ef-1
	} else {
		w, seen := 0, 0
		for ; ; w++ {
			if f.items[w].pass {
				if seen++; seen == f.ef {
					break
				}
			}
		}
		f.worst = w
	}
	f.trim()
}

// less orders entries by (Dist, ID), the frontier's order.
func (e *frontierEntry) less(o *frontierEntry) bool {
	return e.dist < o.dist || (e.dist == o.dist && e.id < o.id)
}

// sortEntries sorts es by (Dist, ID) and returns the sorted entries, in es
// or in f.tmp. A hop admits 17 candidates on average but ~100 in its first
// hops, where insertion alone would shift quadratically and a merge sort's
// every step is a coin-flip branch. So a batch of 16 or more is first
// scattered into len(es) buckets by linear interpolation of its distance
// between the batch's least and greatest, which is monotone in the
// distance, and the insertion pass that follows only orders entries within
// a bucket. The insertion pass sorts whatever the buckets hold; they only
// bound its work.
func (f *frontier) sortEntries(es []frontierEntry) []frontierEntry {
	n := len(es)
	if n < 16 {
		insertionSort(es)
		return es
	}
	lo, hi := es[0].dist, es[0].dist
	for _, e := range es[1:] {
		if e.dist < lo {
			lo = e.dist
		}
		if e.dist > hi {
			hi = e.dist
		}
	}
	span := hi - lo
	scale := float64(n) / span
	if !(span > 0 && span <= math.MaxFloat64 && scale <= math.MaxFloat64) {
		insertionSort(es) // every distance equal, or a span too wide or too narrow to scale
		return es
	}
	bucket := func(d float64) int { return min(int((d-lo)*scale), n-1) }
	f.starts = slices.Grow(f.starts[:0], n+1)[:n+1]
	clear(f.starts)
	for _, e := range es {
		f.starts[bucket(e.dist)+1]++
	}
	for b := 1; b <= n; b++ {
		f.starts[b] += f.starts[b-1]
	}
	f.tmp = slices.Grow(f.tmp[:0], n)[:n]
	for _, e := range es {
		b := bucket(e.dist)
		f.tmp[f.starts[b]] = e
		f.starts[b]++
	}
	insertionSort(f.tmp)
	return f.tmp
}

// insertionSort sorts entries by (Dist, ID).
func insertionSort(es []frontierEntry) {
	for i := 1; i < len(es); i++ {
		e := es[i]
		j := i
		for ; j > 0 && e.less(&es[j-1]); j-- {
			es[j] = es[j-1]
		}
		es[j] = e
	}
}

// trim drops the entries beyond the worst result's distance, counting the
// unexpanded ones as dead.
func (f *frontier) trim() {
	wd := f.items[f.worst].dist
	end := f.worst + 1
	for end < len(f.items) && f.items[end].dist <= wd {
		end++
	}
	for _, e := range f.items[end:] {
		if !e.expanded {
			f.dead++
		}
		if e.pass {
			f.pass--
		}
	}
	f.items = f.items[:end]
	f.cursor = min(f.cursor, end)
}

// skip moves the cursor to the first unexpanded entry, or the end.
func (f *frontier) skip() {
	for f.cursor < len(f.items) && f.items[f.cursor].expanded {
		f.cursor++
	}
}

// pending reports whether the pair's candidate heap would be non-empty:
// an unexpanded entry is held or a dead one was dropped.
func (f *frontier) pending() bool {
	f.skip()
	return f.cursor < len(f.items) || f.dead > 0
}

// next marks the first unexpanded entry expanded and returns its id;
// false when every entry held is expanded.
func (f *frontier) next() (uint32, bool) {
	f.skip()
	if f.cursor == len(f.items) {
		return 0, false
	}
	e := &f.items[f.cursor]
	e.expanded = true
	f.cursor++
	return e.id, true
}

// answer appends the first k passing entries into dst[:0], allocating only
// when dst holds fewer than that many.
func (f *frontier) answer(k int, dst []Neighbor) []Neighbor {
	n := min(k, f.pass)
	if cap(dst) < n {
		dst = make([]Neighbor, 0, n)
	}
	dst = dst[:0]
	for i := 0; len(dst) < n; i++ {
		if e := &f.items[i]; e.pass {
			dst = append(dst, Neighbor{ID: e.id, Dist: e.dist})
		}
	}
	return dst
}
