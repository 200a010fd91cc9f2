package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Trace; Parent is the ID of the span that caused this one (0 for a
// root). Count and Lines are set on aggregate spans only: the per-compare
// spans of one search are folded into a single "core.compare" child whose
// duration is their sum.
type span struct {
	ID      int    `json:"id"`
	Trace   int    `json:"trace"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Count   int64  `json:"count,omitempty"`
	Lines   int64  `json:"lines,omitempty"`
}

// recorder keeps spans in memory; they are written out when the run ends.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(trace, parent int, name string) int {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Trace: trace, Name: name, Parent: parent, StartNs: int64(now), DurNs: -1})
	return len(r.spans)
}

// end closes the span begin returned id for.
func (r *recorder) end(id int) {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.DurNs = int64(now) - s.StartNs
}

// aggregate records a closed span that stands for count folded intervals
// totalling dur, placed at its parent's start.
func (r *recorder) aggregate(trace, parent int, name string, dur time.Duration, count, lines int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Trace: trace, Name: name, Parent: parent,
		StartNs: r.spans[parent-1].StartNs, DurNs: int64(dur), Count: count, Lines: lines})
}

// selfTimes returns, for each span by index, its duration minus the part of
// its interval that its child spans cover. Children are clipped to the
// parent and overlapping children (parallel shards) are counted once, so a
// self time is never negative.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		lo, hi := s.StartNs, s.StartNs+s.DurNs
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
		covered, edge := int64(0), lo
		for _, k := range kids {
			a, b := spans[k].StartNs, spans[k].StartNs+spans[k].DurNs
			if a < edge {
				a = edge
			}
			if b > hi {
				b = hi
			}
			if b > a {
				covered += b - a
				edge = b
			}
		}
		self[i] = s.DurNs - covered
	}
	return self
}

// selfByName collects the self times, in µs, of every span called name.
func selfByName(spans []span, self []int64, name string) []float64 {
	var out []float64
	for i, s := range spans {
		if s.Name == name {
			out = append(out, float64(self[i])/1e3)
		}
	}
	return out
}

// unattributedShare is how far the self times of the traces rooted at a
// span called root are from summing to those roots' durations, as a share
// of the latter. It is zero when every child lies inside its parent.
func unattributedShare(spans []span, self []int64, root string) float64 {
	rooted := make(map[int]bool)
	var rootNs, selfNs int64
	for _, s := range spans {
		if s.Parent == 0 && s.Name == root {
			rooted[s.Trace] = true
			rootNs += s.DurNs
		}
	}
	for i, s := range spans {
		if rooted[s.Trace] {
			selfNs += self[i]
		}
	}
	if rootNs == 0 {
		return 0
	}
	d := float64(selfNs-rootNs) / float64(rootNs)
	if d < 0 {
		d = -d
	}
	return d
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return w.Flush()
}
