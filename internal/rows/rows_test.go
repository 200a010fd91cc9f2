package rows

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"ansmet/internal/stats"
	"ansmet/internal/vecmath"
)

var allTypes = []vecmath.ElemType{vecmath.Uint8, vecmath.Int8, vecmath.Float16, vecmath.BFloat16, vecmath.Float32}

// randomVectors draws n dim-element vectors of elem's values.
func randomVectors(elem vecmath.ElemType, n, dim int, seed uint64) [][]float32 {
	rng := stats.NewRNG(seed)
	out := make([][]float32, n)
	for i := range out {
		out[i] = make([]float32, dim)
		for d := range out[i] {
			out[i][d] = elem.Quantize(float32(rng.NormFloat64() * 40))
		}
	}
	return out
}

// TestPackDecodeRoundTrip: for every element type, what Pack stored is what
// Decode returns, row for row, across a chunk boundary; a row is dim ×
// Bytes() bytes and a SIFT row exactly two cache lines.
func TestPackDecodeRoundTrip(t *testing.T) {
	for _, elem := range allTypes {
		vecs := randomVectors(elem, ChunkRows+37, 19, 7)
		s, err := Pack(vecs, elem)
		if err != nil {
			t.Fatal(err)
		}
		v := s.View()
		if s.Len() != len(vecs) || v.Len() != len(vecs) || len(v.Row(0)) != 19*elem.Bytes() || s.Dim() != 19 || s.Elem() != elem {
			t.Fatalf("%v: %d rows of %d bytes", elem, v.Len(), len(v.Row(0)))
		}
		var buf []float32
		for id, want := range vecs {
			buf = v.Decode(uint32(id), buf[:0])
			for d := range want {
				if buf[d] != want[d] {
					t.Fatalf("%v row %d component %d: %v, stored %v", elem, id, d, buf[d], want[d])
				}
			}
		}
	}
	sift := MustPack(randomVectors(vecmath.Uint8, 3, 128, 1), vecmath.Uint8).View()
	if len(sift.Row(1)) != 128 || uintptr(unsafe.Pointer(&sift.Row(1)[0]))%64 != 0 {
		t.Fatalf("a SIFT row is %d bytes at %p: not two whole lines", len(sift.Row(1)), &sift.Row(1)[0])
	}
}

// TestChunksAlignedAndRowsClipped: every chunk starts on a 64-byte boundary,
// and the one accessor hands out a row clipped to itself — appending to the
// slice a caller received must reallocate, not write into the next row.
func TestChunksAlignedAndRowsClipped(t *testing.T) {
	for _, dim := range []int{1, 3, 100, 128} {
		vecs := randomVectors(vecmath.Uint8, 2*ChunkRows+5, dim, uint64(dim))
		s := MustPack(vecs, vecmath.Uint8)
		v := s.View()
		for c, chunk := range v.chunks {
			if p := uintptr(unsafe.Pointer(unsafe.SliceData(chunk))); p%chunkAlign != 0 {
				t.Fatalf("dim %d: chunk %d starts at %#x, not %d-byte aligned", dim, c, p, chunkAlign)
			}
			if len(chunk) != ChunkRows*dim || cap(chunk) != len(chunk) {
				t.Fatalf("dim %d: chunk %d has len %d cap %d", dim, c, len(chunk), cap(chunk))
			}
		}
		for _, id := range []uint32{0, 7, ChunkRows - 1, ChunkRows, 2 * ChunkRows} {
			row := v.Row(id)
			if len(row) != dim || cap(row) != dim {
				t.Fatalf("dim %d: row %d has len %d cap %d", dim, id, len(row), cap(row))
			}
			next := append([]byte(nil), v.Row(id+1)...)
			grown := append(row, 0xAA, 0xBB) // a caller misusing the slice it was lent
			if &grown[0] == &row[0] {
				t.Fatalf("dim %d: append to row %d did not reallocate", dim, id)
			}
			if !bytes.Equal(v.Row(id+1), next) {
				t.Fatalf("dim %d: append to row %d changed row %d", dim, id, id+1)
			}
		}
	}
}

// TestRunIsRows: View.Run(start, n) is rows start..start+n-1 end to end,
// the very bytes Row hands out, clipped in capacity too — for runs at a
// chunk's first and last rows and the exact scan's 64-row runs — and a run
// that would straddle two chunks panics.
func TestRunIsRows(t *testing.T) {
	for _, dim := range []int{1, 3, 100} {
		v := MustPack(randomVectors(vecmath.Float32, 2*ChunkRows+5, dim, uint64(dim)), vecmath.Float32).View()
		stride := dim * 4
		for _, c := range []struct {
			start uint32
			n     int
		}{{0, 0}, {0, 1}, {0, 64}, {ChunkRows - 64, 64}, {ChunkRows - 1, 1}, {ChunkRows, 64}, {2 * ChunkRows, 5}} {
			run := v.Run(c.start, c.n)
			if len(run) != c.n*stride || cap(run) != len(run) {
				t.Fatalf("dim %d: run %d+%d has len %d cap %d", dim, c.start, c.n, len(run), cap(run))
			}
			for i := 0; i < c.n; i++ {
				row := v.Row(c.start + uint32(i))
				if &run[i*stride] != &row[0] {
					t.Fatalf("dim %d: row %d of run %d+%d is not row %d in place", dim, i, c.start, c.n, c.start+uint32(i))
				}
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("dim %d: a run across a chunk boundary did not panic", dim)
				}
			}()
			v.Run(ChunkRows-1, 2)
		}()
	}
}

// TestPackRefuses: a value the element type does not hold — not finite, out
// of range, not on the type's grid — is refused with ErrValue naming vector
// and component; ragged and empty inputs are refused too.
func TestPackRefuses(t *testing.T) {
	nan := float32(math.NaN())
	cases := []struct {
		elem vecmath.ElemType
		bad  float32
	}{
		{vecmath.Uint8, 256}, {vecmath.Uint8, -1}, {vecmath.Uint8, 1.5}, {vecmath.Uint8, nan},
		{vecmath.Int8, 128}, {vecmath.Int8, float32(math.Inf(-1))},
		{vecmath.Float16, 1e9}, {vecmath.Float16, 0.1}, {vecmath.Float16, float32(math.Inf(1))},
		{vecmath.BFloat16, 1.001}, {vecmath.BFloat16, nan},
		{vecmath.Float32, nan}, {vecmath.Float32, float32(math.Inf(1))},
	}
	for _, c := range cases {
		vecs := [][]float32{{1, 2, 3}, {4, 5, 6}, {7, c.bad, 9}}
		_, err := Pack(vecs, c.elem)
		if !errors.Is(err, ErrValue) || !strings.Contains(err.Error(), "vector 2") || !strings.Contains(err.Error(), "component 1") {
			t.Errorf("%v with %v: err = %v, want ErrValue naming vector 2 component 1", c.elem, c.bad, err)
		}
	}
	if _, err := Pack([][]float32{{1, 2}, {3}}, vecmath.Float32); err == nil || !strings.Contains(err.Error(), "vector 1") {
		t.Errorf("ragged input: err = %v", err)
	}
	if _, err := Pack(nil, vecmath.Float32); err == nil {
		t.Error("empty input packed")
	}
	// A refused Append leaves the slab as it was.
	s := MustPack([][]float32{{1, 2}}, vecmath.Uint8)
	if _, err := s.Append([]float32{3, 300}); !errors.Is(err, ErrValue) || s.Len() != 1 {
		t.Errorf("refused append: err %v, %d rows", err, s.Len())
	}
	if id, err := s.Append([]float32{3, 4}); err != nil || id != 1 {
		t.Errorf("append after a refusal: id %d err %v", id, err)
	}
}

// TestWriteToFromBytes: the raw row section round-trips, and FromBytes
// refuses every shape that is not exactly the rows it was told to expect —
// each refusal naming the field.
func TestWriteToFromBytes(t *testing.T) {
	for _, elem := range allTypes {
		s := MustPack(randomVectors(elem, ChunkRows+9, 6, 3), elem)
		var buf bytes.Buffer
		n, err := s.View().WriteTo(&buf)
		if err != nil || int(n) != s.Len()*6*elem.Bytes() || buf.Len() != int(n) {
			t.Fatalf("%v: wrote %d bytes (err %v), want %d", elem, n, err, s.Len()*6*elem.Bytes())
		}
		back, err := FromBytes(elem, 6, s.Len(), buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < s.Len(); id++ {
			if !bytes.Equal(back.View().Row(uint32(id)), s.View().Row(uint32(id))) {
				t.Fatalf("%v: row %d differs after the round trip", elem, id)
			}
		}
		if _, err := back.Append(make([]float32, 6)); err != nil || back.Len() != s.Len()+1 {
			t.Fatalf("%v: a loaded slab does not grow: %v", elem, err)
		}
	}
	data := make([]byte, 4*6*2)
	refusals := []struct {
		name       string
		elem       vecmath.ElemType
		dim, n     int
		data       []byte
		wantInText string
	}{
		{"one byte short", vecmath.Float16, 6, 4, data[:len(data)-1], "not N·Dim·"},
		{"one byte long", vecmath.Float16, 6, 4, append(append([]byte(nil), data...), 0), "holds 49 bytes"},
		{"zero Dim", vecmath.Float16, 0, 4, data, "Dim is 0"},
		{"negative Dim", vecmath.Float16, -6, 4, data, "Dim is -6"},
		{"zero N", vecmath.Float16, 6, 0, data, "N is 0"},
		{"N·Dim·bytes overflows", vecmath.Float32, math.MaxInt / 2, 4, data, "not N·Dim·"},
		{"N overflows", vecmath.Float16, 6, math.MaxInt / 4, data, "not N·Dim·"},
		{"fp16 NaN pattern", vecmath.Float16, 6, 4, func() []byte {
			d := append([]byte(nil), data...)
			d[2*(6+3)], d[2*(6+3)+1] = 0x01, 0x7e // row 1 component 3
			return d
		}(), "row 1 component 3"},
		{"fp32 Inf pattern", vecmath.Float32, 3, 4, func() []byte {
			d := append([]byte(nil), data...)
			d[4*(2*3+1)+2], d[4*(2*3+1)+3] = 0x80, 0x7f // row 2 component 1
			return d
		}(), "row 2 component 1"},
	}
	for _, r := range refusals {
		if _, err := FromBytes(r.elem, r.dim, r.n, r.data); err == nil || !strings.Contains(err.Error(), r.wantInText) {
			t.Errorf("%s: err = %v, want one naming %q", r.name, err, r.wantInText)
		}
	}
}

// TestAppendUnderReaders is the publication test (run it with -race): one
// writer appends across two chunk boundaries while readers pin views and
// check every row below their pinned count — complete, and the row that was
// written. A view pinned earlier stays valid and unchanged.
func TestAppendUnderReaders(t *testing.T) {
	const total, dim = 2*ChunkRows + 50, 9
	rowFor := func(id int) []float32 {
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32((id*31 + d*7) % 256)
		}
		return v
	}
	s := New(vecmath.Uint8, dim)
	if _, err := s.Append(rowFor(0)); err != nil {
		t.Fatal(err)
	}
	first := s.View()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var buf []float32
			for i := r; ; i += 13 {
				select {
				case <-stop:
					return
				default:
				}
				v := s.View()
				id := i % v.Len()
				buf = v.Decode(uint32(id), buf[:0])
				for d, want := range rowFor(id) {
					if buf[d] != want {
						t.Errorf("row %d of a view of %d: component %d is %v, want %v", id, v.Len(), d, buf[d], want)
						return
					}
				}
				buf = v.Decode(uint32(v.Len()-1), buf[:0]) // the newest visible row is complete too
				if want := rowFor(v.Len() - 1); buf[dim-1] != want[dim-1] {
					t.Errorf("newest row %d is torn", v.Len()-1)
					return
				}
			}
		}(r)
	}
	for id := 1; id < total; id++ {
		if got, err := s.Append(rowFor(id)); err != nil || int(got) != id {
			t.Fatalf("append %d: id %d err %v", id, got, err)
		}
	}
	close(stop)
	wg.Wait()
	if first.Len() != 1 || len(first.chunks) != 1 || len(s.View().chunks) != 3 {
		t.Fatalf("the first view now has %d rows in %d chunks; the slab %d chunks", first.Len(), len(first.chunks), len(s.View().chunks))
	}
}
