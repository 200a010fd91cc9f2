package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ansmet/internal/serve"
)

// numWindows is how many equal windows the measured seconds are cut into
// for the printed window rates, which show how unsteady the machine was
// during the run; no metric is computed from them.
const numWindows = 10

// client talks to one server over keep-alive connections.
type client struct {
	url  string
	http *http.Client
}

func newClient(url string) *client {
	return &client{url: url, http: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
		Timeout:   30 * time.Second,
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// post sends body and decodes a 200 reply into out. A non-200 status is
// returned with a nil error; the body is always drained so the connection
// is reused.
func (c *client) post(path string, body []byte, out any) (status int, err error) {
	resp, err := c.http.Post(c.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// search runs one pre-encoded /v1/search body.
func (c *client) search(body []byte) ([]serve.SearchResult, int, error) {
	var sr serve.SearchResponse
	status, err := c.post("/v1/search", body, &sr)
	return sr.Results, status, err
}

func idsOf(res []serve.SearchResult) []uint32 {
	ids := make([]uint32, len(res))
	for i, r := range res {
		ids[i] = r.ID
	}
	return ids
}

// fixedPass sends every distinct query once, in order, on one connection,
// and returns the ids of each answer. Any non-200 or transport error fails
// the pass: it is the reference later answers are checked against.
func (c *client) fixedPass(bodies [][]byte) ([][]uint32, error) {
	out := make([][]uint32, len(bodies))
	for i, b := range bodies {
		res, status, err := c.search(b)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("fixed pass query %d: status %d: %v", i, status, err)
		}
		out[i] = idsOf(res)
	}
	return out, nil
}

// tally counts what the measured window attempted and what went wrong.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	shed      int // 429s, also counted in failed
	short     int // answers with fewer than k results under churn, NOT counted in failed
	firstErr  string
}

// shortAnswer counts an answer with fewer than k results on the mixed
// workload: a known product defect (README.md, "Known failures") that is
// reported as serve.short_answer_share instead of failing the run.
func (t *tally) shortAnswer() {
	t.mu.Lock()
	t.short++
	t.mu.Unlock()
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(status int, format string, args ...any) {
	t.mu.Lock()
	t.attempted++
	t.failed++
	if status == http.StatusTooManyRequests {
		t.shed++
	}
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf(format, args...)
	}
	t.mu.Unlock()
}

// violation records a failed run-level check (recall floor, recovery).
func (t *tally) violation(format string, args ...any) {
	t.fail(0, format, args...)
}

// measured is what the measured seconds produced. The search slices run in
// step: entry i is the i-th successful, checked search.
type measured struct {
	searchQuery []int           // which distinct query it sent
	searchLat   []time.Duration // its latency, send to last response byte
	searchDone  []time.Duration // its completion offset from the start
	searchStep  []time.Duration // time since the search before it completed; -1 if that one is not a sample
	searchCPU   []time.Duration // server CPU time over the same interval; -1 likewise
	writeLat    []time.Duration // ack latency from each write's due time
	writeLate   []time.Duration // how late the generator sent each write
	inserted    []uint32        // acknowledged insert ids, in order
	deleted     []uint32        // acknowledged delete ids, in order
}

// checker validates one search answer; sent is when the request left.
type checker func(qi int, sent time.Duration, res []serve.SearchResult) error

// runLoad drives the server for the measured duration: one closed-loop
// search connection walking the given request bodies cyclically, plus the
// paced writer when w is non-nil. After every response the server's CPU
// clock is read, so each search has its latency, the step from the
// completion before it and the CPU time the server used in that step. The
// writer always finishes its fixed write count, so it may outlast the
// searcher by its lateness.
func runLoad(c *client, srv *server, bodies [][]byte, dur time.Duration, check checker, w *writer, t *tally) (*measured, error) {
	m := &measured{}
	var wg sync.WaitGroup
	var cpuErr error
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		prevDone, prevCPU := time.Duration(-1), time.Duration(0)
		for qi := 0; ; qi = (qi + 1) % len(bodies) {
			sent := time.Since(start)
			if sent >= dur {
				return
			}
			res, status, err := c.search(bodies[qi])
			end := time.Since(start)
			cpu, cerr := srv.cpuTime()
			if cerr != nil {
				cpuErr = cerr
				return
			}
			if err != nil || status != http.StatusOK {
				t.fail(status, "search query %d: status %d: %v", qi, status, err)
				prevDone = -1
				continue
			}
			if end >= dur {
				return // completed past the measured seconds: not a sample
			}
			if cerr := check(qi, sent, res); cerr != nil {
				t.fail(0, "search query %d: %v", qi, cerr)
				prevDone = -1
				continue
			}
			t.ok()
			step, used := time.Duration(-1), time.Duration(-1)
			if prevDone >= 0 {
				step, used = end-prevDone, cpu-prevCPU
			}
			m.searchQuery = append(m.searchQuery, qi)
			m.searchLat = append(m.searchLat, end-sent)
			m.searchDone = append(m.searchDone, end)
			m.searchStep = append(m.searchStep, step)
			m.searchCPU = append(m.searchCPU, used)
			prevDone, prevCPU = end, cpu
		}
	}()
	if w != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(c, start, m, t)
		}()
	}
	wg.Wait()
	return m, cpuErr
}

// writer is the mixed workload's paced open-loop write stream on one
// connection: write j is due at j/writesPerSecond; four of five insert a
// fresh vector, every fifth deletes the next id of the seeded permutation.
// Writes go out in order (the server assigns insert ids by arrival), so a
// slow ack delays the writes behind it; each is timed from its due time, so
// that delay is counted, and the send lateness is reported beside it.
type writer struct {
	n       int     // base population: insert j must come back as id n+j
	writes  []write // in send order
	ackedAt []atomic.Int64
}

// write is one pre-encoded request of the stream.
type write struct {
	body []byte
	del  bool
	id   uint32 // the id a delete names
}

func newWriter(d *data, writes int) (*writer, error) {
	w := &writer{n: d.spec.n, ackedAt: make([]atomic.Int64, d.spec.n)}
	ins, del := 0, 0
	for j := 0; j < writes; j++ {
		wr := write{del: j%deleteEvery == deleteEvery-1}
		var err error
		if wr.del {
			wr.id = d.delOrder[del]
			del++
			wr.body, err = json.Marshal(serve.DeleteRequest{ID: &wr.id})
		} else {
			wr.body, err = json.Marshal(serve.UpsertRequest{Vector: d.inserts[ins]})
			ins++
		}
		if err != nil {
			return nil, fmt.Errorf("encoding write body: %w", err)
		}
		w.writes = append(w.writes, wr)
	}
	return w, nil
}

func (w *writer) run(c *client, start time.Time, m *measured, t *tally) {
	for j, wr := range w.writes {
		due := time.Duration(j) * time.Second / writesPerSecond
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Since(start)
		var status int
		var err error
		if wr.del {
			var dr serve.DeleteResponse
			status, err = c.post("/v1/delete", wr.body, &dr)
			if err == nil && status == http.StatusOK && !dr.Deleted {
				err = fmt.Errorf("delete not acknowledged")
			}
		} else {
			var ur serve.UpsertResponse
			status, err = c.post("/v1/upsert", wr.body, &ur)
			wr.id = uint32(w.n + len(m.inserted))
			if err == nil && status == http.StatusOK && ur.ID != wr.id {
				err = fmt.Errorf("insert came back as id %d, want %d", ur.ID, wr.id)
			}
		}
		end := time.Since(start)
		if err != nil || status != http.StatusOK {
			t.fail(status, "write %d: status %d: %v", j, status, err)
			continue
		}
		t.ok()
		m.writeLat = append(m.writeLat, end-due)
		m.writeLate = append(m.writeLate, sent-due)
		if wr.del {
			// Stored after the ack: a search sent later must not see the id.
			w.ackedAt[wr.id].Store(int64(end))
			m.deleted = append(m.deleted, wr.id)
		} else {
			m.inserted = append(m.inserted, wr.id)
		}
	}
}

// deletedBefore reports whether id's delete was acknowledged before sent.
func (w *writer) deletedBefore(id uint32, sent time.Duration) bool {
	if int(id) >= len(w.ackedAt) {
		return false
	}
	at := w.ackedAt[id].Load()
	return at != 0 && time.Duration(at) < sent
}
