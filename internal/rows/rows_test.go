package rows

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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

// checkHeads fails unless every row of v has the head plane's entries
// Append and FromBytes promise: a head that is the row's top 16 bits an
// element, bit for bit, with zero padding, and norms at least the float64
// norms of the residual and of the head.
func checkHeads(t *testing.T, label string, v View) {
	t.Helper()
	dim := len(v.Row(0)) / 4
	hb := vecmath.HeadBytes(dim)
	for id := 0; id < v.Len(); id++ {
		heads, rho, nu := v.HeadRun(uint32(id), 1)
		row := v.Row(uint32(id))
		if len(heads) != hb || cap(heads) != hb || len(rho) != 1 || cap(nu) != 1 {
			t.Fatalf("%s row %d: head %d/%d bytes, norms %d, %d", label, id, len(heads), cap(heads), len(rho), cap(nu))
		}
		var rr, hh float64
		for d := 0; d < dim; d++ {
			x := binary.LittleEndian.Uint32(row[4*d:])
			if got := binary.LittleEndian.Uint16(heads[2*d:]); got != uint16(x>>16) {
				t.Fatalf("%s row %d component %d: head %#04x, the row's top half is %#04x", label, id, d, got, x>>16)
			}
			h := float64(math.Float32frombits(x &^ 0xffff))
			r := float64(math.Float32frombits(x)) - h
			rr, hh = rr+r*r, hh+h*h
		}
		for d := 2 * dim; d < hb; d++ {
			if heads[d] != 0 {
				t.Fatalf("%s row %d: padding byte %d is %#x", label, id, d, heads[d])
			}
		}
		if float64(rho[0]) < math.Sqrt(rr) || float64(nu[0]) < math.Sqrt(hh) {
			t.Fatalf("%s row %d: ρ %v ν %v, below the norms %v and %v", label, id, rho[0], nu[0], math.Sqrt(rr), math.Sqrt(hh))
		}
	}
}

// TestHeadPlane: a float32 slab's head plane holds, for every row appended
// and every row loaded, its head and its norms (checkHeads), across a chunk
// boundary and for rows of every shape that matters to the norms —
// ordinary values, low halves all ones, subnormals, magnitudes near the
// largest, values a bf16 holds exactly. A run of heads is in place and
// clipped like Run; one that straddles two chunks panics, and so does
// HeadRun on a slab of any other type, which has no plane.
func TestHeadPlane(t *testing.T) {
	rng := stats.NewRNG(53)
	for _, dim := range []int{1, 8, 13, 100} {
		vecs := make([][]float32, ChunkRows+37)
		for i := range vecs {
			vecs[i] = make([]float32, dim)
			for d := range vecs[i] {
				x := float32(rng.NormFloat64() * 40)
				switch i % 5 {
				case 1:
					x = math.Float32frombits(math.Float32bits(x) | 0xffff)
				case 2:
					x = math.Float32frombits(math.Float32bits(x) & 0x807fffff)
				case 3:
					x = math.Float32frombits(math.Float32bits(x)&0x807fffff | 0x7f000000)
				case 4:
					x = math.Float32frombits(math.Float32bits(x) &^ 0xffff)
				}
				vecs[i][d] = x
			}
		}
		s := MustPack(vecs, vecmath.Float32)
		checkHeads(t, fmt.Sprintf("appended dim %d", dim), s.View())
		var buf bytes.Buffer
		if _, err := s.View().WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != s.Len()*dim*4 {
			t.Fatalf("dim %d: the snapshot's row section is %d bytes, want the rows' %d", dim, buf.Len(), s.Len()*dim*4)
		}
		loaded, err := FromBytes(vecmath.Float32, dim, s.Len(), buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		checkHeads(t, fmt.Sprintf("loaded dim %d", dim), loaded.View())

		v, hb := s.View(), vecmath.HeadBytes(dim)
		heads, rho, nu := v.HeadRun(ChunkRows-64, 64)
		if len(heads) != 64*hb || cap(heads) != len(heads) || len(rho) != 64 || cap(rho) != 64 || len(nu) != 64 || cap(nu) != 64 {
			t.Fatalf("dim %d: a run of 64 heads has %d/%d bytes and %d/%d, %d/%d norms", dim, len(heads), cap(heads), len(rho), cap(rho), len(nu), cap(nu))
		}
		one, _, _ := v.HeadRun(ChunkRows-1, 1)
		if &heads[63*hb] != &one[0] {
			t.Fatalf("dim %d: the run's last head is not row %d's in place", dim, ChunkRows-1)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("dim %d: a run of heads across a chunk boundary did not panic", dim)
				}
			}()
			v.HeadRun(ChunkRows-1, 2)
		}()
	}
	for _, elem := range allTypes[:4] {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%v: HeadRun on a slab without a head plane did not panic", elem)
				}
			}()
			MustPack(randomVectors(elem, 1, 8, 1), elem).View().HeadRun(0, 1)
		}()
	}
}

// TestHeadsUnderAppend is TestAppendUnderReaders for the head plane (run it
// with -race): one writer appends float32 rows across two chunk boundaries
// while readers pin views and check the heads and norms of rows below their
// pinned count, the newest among them: the row's count publishes its head.
func TestHeadsUnderAppend(t *testing.T) {
	const total, dim = 2*ChunkRows + 50, 13
	rowFor := func(id int) []float32 {
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(id*31+d*7) / 3
		}
		return v
	}
	s := New(vecmath.Float32, dim)
	if _, err := s.Append(rowFor(0)); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i += 13 {
				select {
				case <-stop:
					return
				default:
				}
				v := s.View()
				for _, id := range []int{i % v.Len(), v.Len() - 1} {
					heads, rho, nu := v.HeadRun(uint32(id), 1)
					var rr float64
					for d, x := range rowFor(id) {
						b := math.Float32bits(x)
						if got := binary.LittleEndian.Uint16(heads[2*d:]); got != uint16(b>>16) {
							t.Errorf("row %d of a view of %d: head component %d is %#04x, want %#04x", id, v.Len(), d, got, b>>16)
							return
						}
						r := float64(x) - float64(math.Float32frombits(b&^0xffff))
						rr += r * r
					}
					if float64(rho[0]) < math.Sqrt(rr) || nu[0] <= 0 && id > 0 {
						t.Errorf("row %d of a view of %d: norms ρ %v ν %v", id, v.Len(), rho[0], nu[0])
						return
					}
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
}
