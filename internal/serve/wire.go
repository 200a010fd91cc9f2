package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"ansmet/internal/hnsw"
)

// Wire codec: the request front half shared by /v1/search, /v1/upsert and
// /v1/delete, one-pass recognisers for the two bodies that carry a vector,
// and an append encoder for the complete 200 of a search. The recognisers
// accept only the canonical form of a body and never reject one: whatever
// they decline goes through encoding/json, which stays the only thing that
// ever says 400 and the only source of the text it says it with. DESIGN.md,
// "Wire codec", has the exactness arguments.

// bufPool holds the byte buffers a request body is read into and a search's
// 200 is encoded into. Only bytes are pooled: the decoded vector is allocated
// per request and belongs to the hook that receives it.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBuf bounds what one idle pool entry may pin; a larger buffer
// (a body near MaxBodyBytes) is left to the collector.
const maxPooledBuf = 64 << 10

func putBuf(buf *[]byte) {
	if cap(*buf) <= maxPooledBuf {
		bufPool.Put(buf)
	}
}

// admit is the front half of every POST endpoint: drain refusal, admission,
// then the whole size-limited body read into a pooled buffer and decoded
// into req. Shedding happens before the body is read; the body is buffered
// only inside an admission slot. On success the handler owns both results:
// it defers release, so the slot is held until it returns, and hands buf
// back with putBuf once it has no more use for the bytes. A nil buf means
// the response has been written.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, req any) (buf *[]byte, release func()) {
	s.metrics.Requests.Add(1)
	if s.draining.Load() {
		s.metrics.Draining.Add(1)
		w.Header().Set("Connection", "close")
		writeJSON(w, http.StatusServiceUnavailable, SearchResponse{Error: "server draining"})
		return nil, nil
	}
	release, err := s.adm.Acquire(r.Context())
	if err != nil {
		var oe *OverloadError
		if errors.As(err, &oe) {
			s.metrics.Shed.Add(1)
			w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfterSecs(oe.RetryAfter)))
			writeJSON(w, http.StatusTooManyRequests, SearchResponse{Error: oe.Reason.Error()})
			return nil, nil
		}
		// Context fired while queued: the client gave up.
		s.metrics.ClientCancels.Add(1)
		return nil, nil
	}

	buf = bufPool.Get().(*[]byte)
	// The header only sizes the first read, and only up to the limit: a
	// hostile Content-Length reserves no more than an honest one may.
	*buf, err = readBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), *buf,
		min(r.ContentLength, s.cfg.MaxBodyBytes)+1)
	if err == nil {
		err = s.decodeBody(*buf, req)
	}
	if err != nil {
		putBuf(buf)
		release()
		s.metrics.BadRequests.Add(1)
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				SearchResponse{Error: fmt.Sprintf("body exceeds %d bytes", mbe.Limit)})
			return nil, nil
		}
		writeJSON(w, http.StatusBadRequest, SearchResponse{Error: "malformed JSON: " + err.Error()})
		return nil, nil
	}
	return buf, release
}

// readBody reads r to EOF into buf[:0], growing it to sizeHint up front
// when the pooled capacity is smaller.
func readBody(r io.Reader, buf []byte, sizeHint int64) ([]byte, error) {
	buf = buf[:0]
	if int64(cap(buf)) < sizeHint {
		buf = make([]byte, 0, sizeHint)
	}
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, bytes.MinRead)
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// decodeBody fills req from b: by the endpoint's recogniser when it accepts
// the bytes, otherwise by encoding/json exactly as a streaming decoder over
// the same bytes would — its verdict, its error text, its leniencies.
// /v1/delete's body is tiny and has no recogniser.
func (s *Server) decodeBody(b []byte, req any) error {
	switch req := req.(type) {
	case *SearchRequest:
		if decodeSearch(b, req) {
			return nil
		}
		s.metrics.WireFallbacks.Add(1)
	case *UpsertRequest:
		if decodeUpsert(b, req) {
			return nil
		}
		s.metrics.WireFallbacks.Add(1)
	}
	return json.NewDecoder(bytes.NewReader(b)).Decode(req)
}

// --- recognisers ----------------------------------------------------------

// decodeSearch fills req from b when b is a canonical /v1/search body and
// reports whether it was; req is untouched otherwise.
func decodeSearch(b []byte, req *SearchRequest) bool {
	var out SearchRequest
	c := cursor{b: b}
	ok := c.object(searchKeys, func(key string) (ok bool) {
		switch key {
		case "query":
			out.Query, ok = c.floats()
		case "k":
			out.K, ok = c.int()
		case "ef":
			out.Ef, ok = c.int()
		case "timeout_ms":
			out.TimeoutMs, ok = c.int()
		case "mode":
			var m []byte
			m, ok = c.str()
			out.Mode = string(m)
		case "recall_target":
			out.RecallTarget, ok = c.float64()
		}
		return ok
	})
	if ok {
		*req = out
	}
	return ok
}

// decodeUpsert is decodeSearch for /v1/upsert.
func decodeUpsert(b []byte, req *UpsertRequest) bool {
	var out UpsertRequest
	c := cursor{b: b}
	ok := c.object(upsertKeys, func(key string) (ok bool) {
		switch key {
		case "id":
			var id uint64
			id, ok = c.uint() // no sign: encoding/json refuses "-0" for a uint
			ok = ok && id <= math.MaxUint32
			id32 := uint32(id)
			out.ID = &id32
		case "vector":
			out.Vector, ok = c.floats()
		case "timeout_ms":
			out.TimeoutMs, ok = c.int()
		}
		return ok
	})
	if ok {
		*req = out
	}
	return ok
}

// The JSON tags of SearchRequest and UpsertRequest: all a canonical body may
// use as keys. A tag missing here only sends its bodies to encoding/json.
var (
	searchKeys = []string{"query", "k", "ef", "timeout_ms", "mode", "recall_target"}
	upsertKeys = []string{"id", "vector", "timeout_ms"}
)

// cursor walks a body once, left to right. Its methods recognise, they do
// not diagnose: each consumes one canonical token at the cursor or reports
// false, and one false declines the whole body.
type cursor struct {
	b []byte
	i int
}

// peek is the byte at the cursor, 0 at the end (no token starts with 0).
func (c *cursor) peek() byte {
	if c.i < len(c.b) {
		return c.b[c.i]
	}
	return 0
}

func (c *cursor) ws() {
	for c.i < len(c.b) {
		switch c.b[c.i] {
		case ' ', '\t', '\r', '\n':
			c.i++
		default:
			return
		}
	}
}

// eat consumes ch, after any whitespace.
func (c *cursor) eat(ch byte) bool {
	c.ws()
	if c.peek() != ch {
		return false
	}
	c.i++
	return true
}

// object recognises `{"key":value,…}` with nothing but whitespace after it,
// every key one of keys byte for byte and none twice. value is called with
// the cursor on the value's first byte.
func (c *cursor) object(keys []string, value func(key string) bool) bool {
	if !c.eat('{') {
		return false
	}
	if !c.eat('}') {
		seen := 0
		for more := true; more; more = c.eat(',') {
			c.ws()
			name, ok := c.str()
			k := 0
			for k < len(keys) && keys[k] != string(name) {
				k++
			}
			if !ok || k == len(keys) || seen&(1<<k) != 0 || !c.eat(':') {
				return false
			}
			seen |= 1 << k
			c.ws()
			if !value(keys[k]) {
				return false
			}
		}
		if !c.eat('}') {
			return false
		}
	}
	c.ws()
	return c.i == len(c.b)
}

// str recognises a string of ASCII without escapes or control characters
// and returns the bytes between its quotes, still in the body's buffer.
func (c *cursor) str() ([]byte, bool) {
	if c.peek() != '"' {
		return nil, false
	}
	start := c.i + 1
	for j := start; j < len(c.b); j++ {
		switch ch := c.b[j]; {
		case ch == '"':
			c.i = j + 1
			return c.b[start:j], true
		case ch < ' ' || ch >= 0x80 || ch == '\\':
			return nil, false
		}
	}
	return nil, false
}

// uint recognises 0|[1-9][0-9]* of at most 18 digits (below 2^63). A
// fraction or exponent after it is left for the caller's next token to trip
// over, as after every number here.
func (c *cursor) uint() (uint64, bool) {
	start := c.i
	var v uint64
	for c.i < len(c.b) && c.b[c.i]-'0' <= 9 {
		v = v*10 + uint64(c.b[c.i]-'0')
		c.i++
	}
	n := c.i - start
	return v, 1 <= n && n <= 18 && (n == 1 || c.b[start] != '0')
}

// int recognises -?(0|[1-9][0-9]*) that fits int.
func (c *cursor) int() (int, bool) {
	neg := c.peek() == '-'
	if neg {
		c.i++
	}
	u, ok := c.uint()
	v := int64(u)
	if neg {
		v = -v
	}
	return int(v), ok && int64(int(v)) == v
}

func (c *cursor) float64() (float64, bool) {
	n, ok := c.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(n.text), 64)
	return f, err == nil
}

// floats is the one number-array scanner, behind "query" and "vector":
// `[n,n,…]` into a []float32 allocated once at its exact length and never
// pooled. No token of a number array contains ']', so the first one ends it
// and the commas before it count the elements.
func (c *cursor) floats() ([]float32, bool) {
	if c.peek() != '[' {
		return nil, false
	}
	end := bytes.IndexByte(c.b[c.i:], ']')
	if end < 0 {
		return nil, false
	}
	end += c.i
	c.i++
	c.ws()
	if c.i == end {
		c.i++
		return []float32{}, true // what encoding/json makes of []: empty, not nil
	}
	out := make([]float32, bytes.Count(c.b[c.i:end], comma)+1)
	last := len(out) - 1
	for k := 0; ; k++ {
		// The word path takes what plain elements it can before the last;
		// number takes the element it stops at.
		var n int
		n, c.i = plain(c.b, c.i, out[k:last])
		k += n
		c.ws()
		num, ok := c.number()
		if !ok {
			return nil, false
		}
		if out[k], ok = num.float32(); !ok {
			return nil, false
		}
		if k == last {
			break
		}
		if !c.eat(',') {
			return nil, false
		}
	}
	if !c.eat(']') {
		return nil, false
	}
	return out, true
}

var comma = []byte{','}

// plainWindow is the most bytes plain reads from an element's first: a
// sign, seven integer digits, the point, two words of fraction digits and
// the comma.
const plainWindow = 26

// plain is the word path of floats. It converts the plain elements it finds
// from body[at:] on into dst, in order, until dst is full or an element is
// not plain, and returns how many it converted and where the next element
// begins. A plain element is -?(0|[1-9][0-9]{0,6})(\.[0-9]{1,16})? followed
// directly by ','. Its digits are read eight to a word, found by one test per
// word and converted by one multiply-fold (Lemire, "Number parsing at a
// gigabyte per second", 2021). Whatever else it meets — whitespace, an
// exponent, a longer mantissa, an element within plainWindow bytes of the
// body's end, a value whose conversion is not provably exact — stops it and
// is number's.
//
// The value is w ÷ 10^e, computed as number.float32 does and under its
// conditions: w holds at most 19 digits (so it cannot wrap) and is at most
// 2^53, and e ≤ 16. Fraction digits are taken in words of eight, the first
// padded with zeros: e is 8 or 8 plus the second word's digits, and an
// integer element has e = 0. number.float32's range test holds by
// construction, since 10^-16 ≤ |x| < 10^7, and its midpoint test is kept.
func plain(body []byte, at int, dst []float32) (int, int) {
	for k := range dst {
		if len(body)-at < plainWindow {
			return k, at
		}
		b := (*[plainWindow]byte)(body[at:])
		var sign uint32
		if b[0] == '-' {
			sign = 1 << 31
		}
		i := int(sign >> 31)
		var w uint64
		digits := 0 // in w, zeros that pad the first fraction word included
		if b[i] != '0' || b[i+1] != '.' {
			word := binary.LittleEndian.Uint64(b[i:])
			n := digitRun(word)
			if n == 0 || n > 7 || n > 1 && b[i] == '0' {
				return k, at
			}
			w, digits = fold(word<<(64-8*n)), int(n)
			i += int(n)
		} else {
			i++ // |x| < 1: the integer part is the 0 before the point
		}
		e := 0
		if b[i] == '.' {
			// Both words are read and folded whatever the first holds: a
			// branch on the fraction's length would be a coin toss.
			lo := binary.LittleEndian.Uint64(b[i+1:])
			hi := binary.LittleEndian.Uint64(b[i+9:])
			bad := nonDigits(lo)
			m := uint(bits.TrailingZeros64(bad)) >> 3 // lo's digits
			if m == 0 {
				return k, at
			}
			n := digitRun(hi) & -(m >> 3) // hi's digits, after eight in lo
			keep := (bad&-bad)>>7 - 1     // lo's digit bytes, all eight when bad is 0
			w = (w*1e8+fold(lo&keep))*pow10u[n] + fold(hi<<(64-8*n))
			e = 8 + int(n)
			digits += e
			i += 1 + int(m+n)
		}
		if b[i] != ',' || digits > 19 || w > 1<<53 {
			return k, at
		}
		d := float64(w) / pow10[e]
		if low := math.Float64bits(d) & (1<<29 - 1); low >= 1<<28-1 && low <= 1<<28+1 {
			return k, at
		}
		dst[k] = math.Float32frombits(math.Float32bits(float32(d)) | sign)
		at += i + 1
	}
	return len(dst), at
}

// nonDigits flags each byte of word that is not an ASCII digit with its top
// bit, exactly up to the first such byte (word's first byte is its lowest):
// below '0' wraps the difference, above '9' carries the sum past 0x7f, and
// carries and borrows run only upward, from that byte on.
func nonDigits(word uint64) uint64 {
	return (word - 0x3030303030303030 | (word + 0x4646464646464646)) & 0x8080808080808080
}

// digitRun is how many of word's bytes are digits before the first that is
// not: 0 to 8.
func digitRun(word uint64) uint {
	return uint(bits.TrailingZeros64(nonDigits(word))) >> 3
}

// fold is the value of word's eight bytes read as decimal digits, its first
// (lowest) byte the most significant. Only each byte's low nibble is read, so
// zero bytes are zeros: shifting n digits to the top of a word puts zeros
// before them, masking them off puts zeros after. The digits fold pairwise:
// two per 16 bits, four per 32, eight per 64.
func fold(word uint64) uint64 {
	v := word & 0x0f0f0f0f0f0f0f0f
	v = (v * (1 + 10<<8)) >> 8 & 0x00ff00ff00ff00ff
	v = (v * (1 + 100<<16)) >> 16 & 0x0000ffff0000ffff
	return (v * (1 + 10000<<32)) >> 32
}

// pow10u is 10^n for the digit counts of one word.
var pow10u = [9]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// number is one JSON number taken apart: its value is ±w × 10^e when exact
// is set, which needs at most 15 significant digits (so w < 2^53).
type number struct {
	text  []byte
	w     uint64
	e     int
	neg   bool
	exact bool
}

// number recognises the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, which is narrower than
// what strconv accepts (no hex, no underscores, no "inf", no bare "." or
// "+").
func (c *cursor) number() (n number, ok bool) {
	b, i := c.b, c.i
	if i < len(b) && b[i] == '-' {
		n.neg = true
		i++
	}
	digits := 0 // significant ones: from the first non-zero digit on
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i]-'1' <= 8:
		start := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			n.w = n.w*10 + uint64(b[i]-'0') // may wrap; then digits > 15
		}
		digits = i - start
	default:
		return n, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		start := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			n.w = n.w*10 + uint64(b[i]-'0')
			if n.w != 0 {
				digits++
			}
		}
		if i == start {
			return n, false
		}
		n.e = start - i
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		exp, start := 0, i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if exp < 1e6 { // far past any exponent the fast path takes
				exp = exp*10 + int(b[i]-'0')
			}
		}
		if i == start {
			return n, false
		}
		if eneg {
			exp = -exp
		}
		n.e += exp
	}
	n.exact = digits <= 15
	n.text = b[c.i:i]
	c.i = i
	return n, true
}

// float32 is strconv.ParseFloat(text, 32) — the conversion encoding/json
// makes — bit for bit, and false where that reports an error (overflow).
//
// With w < 2^53 and |e| ≤ 22 both operands are exact float64s, so
// d = w × or ÷ 10^|e| is one correctly rounded operation: d is the float64
// nearest the true value x (Clinger). Rounding is monotonic, so d and x lie
// on the same side of every float32 rounding midpoint m unless d == m, and
// float32(d) is then the float32 nearest x. The midpoints of the float32
// normal range are the float64s whose low 29 mantissa bits read 2^28; those
// (with one ulp of margin either side), anything outside that range, and
// every longer or wider number go to strconv.
func (n number) float32() (float32, bool) {
	if n.exact {
		switch {
		case n.w == 0:
			if n.neg {
				return float32(math.Copysign(0, -1)), true
			}
			return 0, true
		case -22 <= n.e && n.e <= 22:
			d := float64(n.w)
			if n.e < 0 {
				d /= pow10[-n.e]
			} else {
				d *= pow10[n.e]
			}
			low := math.Float64bits(d) & (1<<29 - 1)
			if 0x1p-126 <= d && d <= math.MaxFloat32 && (low < 1<<28-1 || low > 1<<28+1) {
				if n.neg {
					d = -d
				}
				return float32(d), true
			}
		}
	}
	f, err := strconv.ParseFloat(string(n.text), 32)
	return float32(f), err == nil
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [23]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// --- encoder --------------------------------------------------------------

// appendSearchOK appends the body of a complete 200 — byte for byte what
// json.NewEncoder(w).Encode(SearchResponse{Results: toResults(nn)}) writes —
// to dst. It reports false when a distance is not finite: encoding/json
// refuses those, and what it does then stays what the client sees.
func appendSearchOK(dst []byte, nn []hnsw.Neighbor) ([]byte, bool) {
	dst = append(dst, `{"results":[`...)
	for i, n := range nn {
		if math.IsInf(n.Dist, 0) || math.IsNaN(n.Dist) {
			return dst, false
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"id":`...)
		dst = strconv.AppendUint(dst, uint64(n.ID), 10)
		dst = append(dst, `,"dist":`...)
		dst = appendJSONFloat(dst, n.Dist)
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...), true
}

// writeSearchOK writes the complete 200 for nn, encoded over the request's
// bytes in buf (nothing decoded points into them) and sent with one Write.
// It reports false, with nothing written, when the encoder declines.
func writeSearchOK(w http.ResponseWriter, buf *[]byte, nn []hnsw.Neighbor) bool {
	body, ok := appendSearchOK((*buf)[:0], nn)
	*buf = body
	if !ok {
		return false
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // as in writeJSON: a failed write means the client is gone
	return true
}

// appendJSONFloat formats a finite float64 by encoding/json's rule: the
// shortest digits that round-trip, as 'f' except below 1e-6 or from 1e21,
// where it is 'e' with a two-digit negative exponent's leading zero dropped
// (e-07 → e-7).
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}
