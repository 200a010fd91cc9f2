// Package rows is the one store of vector rows: every route, the graph build
// and the snapshot read the same bytes, held in the element type's own
// encoding (vecmath.ElemType.AppendRow) — a SIFT row is 128 bytes, two cache
// lines, not 512 — and compared there by the typed kernels, with no decode.
//
// Rows live in chunks of 1024, each allocated whole on a 64-byte boundary
// and never moved, behind a chunk table (the shape of hnsw/blocks.go). One
// accessor hands a row out, View.Row, clipped to its own bytes; View.Run
// hands out a stretch of one chunk's rows the same way.
//
// A float32 chunk also holds a head plane after its rows: each row's head,
// the top 16 bits of every element (a bf16 truncation, padded to whole
// steps of eight), then each row's residual norm ρ ≥ ‖x − head‖, then each
// row's head norm ν ≥ ‖head‖ (vecmath.Head). View.HeadRun hands out a
// run's heads and norms; the exact scan's screen reads them instead of the
// rows. The plane is derived from the rows and never written out.
//
// A Slab grows by Append from a single writer under any number of readers.
// The writer writes the row, republishes the table only when the row opened
// a new chunk, then publishes the count; a reader pins the count, then the
// table (Slab.View). The count's release/acquire pair orders every row below
// a pinned count, and its chunk, before the reader: one publication. What is
// built on the slab and grows with it (the graph) publishes an id only after
// its row is in, so an id it hands out has a row in any view pinned
// afterwards. A row's head and norms are written beside it before the
// count, so the one publication covers them too. DESIGN.md, "Row store", has the long
// form.
package rows

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"unsafe"

	"ansmet/internal/vecmath"
)

const (
	chunkShift = 10
	// ChunkRows is the number of rows in a chunk.
	ChunkRows = 1 << chunkShift
	chunkMask = ChunkRows - 1
	// chunkAlign is the alignment of a chunk's first row: a cache line, so a
	// 128-byte SIFT row is exactly two.
	chunkAlign = 64
)

// ErrValue reports (wrapped, with the position) a component that is not
// finite or is not a value of the slab's element type: rows store exactly,
// so ingestion quantizes first and the slab refuses what would be rounded.
var ErrValue = errors.New("rows: value is not representable in the element type")

// Slab is a growing set of equal-length rows in one element type.
type Slab struct {
	elem   vecmath.ElemType
	dim    int
	stride int // bytes per row
	head   int // bytes per head in the chunk's head plane, 0 without one

	table atomic.Pointer[[][]byte] // the published chunk table
	count atomic.Int64             // rows complete and visible
}

// New returns an empty slab of dim-element rows.
func New(elem vecmath.ElemType, dim int) *Slab {
	s := &Slab{elem: elem, dim: dim, stride: dim * elem.Bytes()}
	if elem == vecmath.Float32 {
		s.head = vecmath.HeadBytes(dim)
	}
	s.table.Store(new([][]byte))
	return s
}

// Pack returns a slab holding the vectors, in order. The element values must
// already be elem's (see ErrValue) and the vectors of one length.
func Pack(vectors [][]float32, elem vecmath.ElemType) (*Slab, error) {
	if len(vectors) == 0 || len(vectors[0]) == 0 {
		return nil, fmt.Errorf("rows: empty dataset or zero-dimension vectors")
	}
	s := New(elem, len(vectors[0]))
	for i, v := range vectors {
		if _, err := s.Append(v); err != nil {
			return nil, fmt.Errorf("vector %d: %w", i, err)
		}
	}
	return s, nil
}

// MustPack is Pack for vectors known to hold elem's values (a generated
// dataset, rows read back from a database); it panics otherwise.
func MustPack(vectors [][]float32, elem vecmath.ElemType) *Slab {
	s, err := Pack(vectors, elem)
	if err != nil {
		panic(err)
	}
	return s
}

// FromBytes returns a slab of n rows copied from data, which must be exactly
// n·dim·elem.Bytes() bytes of rows in storage encoding, in id order — the
// row section of a snapshot, so the shape is checked before anything is
// allocated and float rows are scanned for infinities and NaNs.
func FromBytes(elem vecmath.ElemType, dim, n int, data []byte) (*Slab, error) {
	if dim <= 0 || n <= 0 {
		return nil, fmt.Errorf("rows: Dim is %d, N is %d: both must be positive", dim, n)
	}
	stride := dim * elem.Bytes()
	// The first two tests are the overflow guard: n·stride is formed only once
	// it is known to fit len(data).
	if stride/elem.Bytes() != dim || n > len(data)/stride || len(data) != n*stride {
		return nil, fmt.Errorf("rows: row section holds %d bytes, not N·Dim·%d (N %d, Dim %d)", len(data), elem.Bytes(), n, dim)
	}
	s := New(elem, dim)
	var chunks [][]byte
	for id := 0; id < n; id += ChunkRows {
		c := s.newChunk()
		copy(c[:ChunkRows*stride], data[id*stride:])
		for i := range min(n-id, ChunkRows) {
			s.writeHead(c, i)
		}
		chunks = append(chunks, c)
	}
	s.table.Store(&chunks)
	s.count.Store(int64(n))
	v, vals := s.View(), make([]float32, 0, dim)
	for id := 0; id < n && elem.Bits() > 8; id++ { // every byte is an integer
		vals = v.Decode(uint32(id), vals[:0])
		for d, x := range vals {
			if x-x != 0 { // an Inf or NaN bit pattern
				return nil, fmt.Errorf("rows: row %d component %d is not a finite %v bit pattern", id, d, elem)
			}
		}
	}
	return s, nil
}

// newChunk allocates one chunk, its first byte on a chunkAlign boundary:
// ChunkRows rows, then, on a float32 slab, ChunkRows heads and two sets of
// ChunkRows float32 norms, ρ then ν. Every section starts on a 64-byte
// boundary.
func (s *Slab) newChunk() []byte {
	size := ChunkRows * s.stride
	if s.head > 0 {
		size += ChunkRows * (s.head + 8)
	}
	buf := make([]byte, size+chunkAlign-1)
	off := int(-uintptr(unsafe.Pointer(unsafe.SliceData(buf))) & (chunkAlign - 1))
	return buf[off : off+size : off+size]
}

// Lines is the number of 64-byte lines a plain row of dim elem values spans:
// what a full fetch of one vector reads, and the footprint the NDP model
// charges a Base design and a full-precision backup.
func Lines(elem vecmath.ElemType, dim int) int { return (dim*elem.Bytes() + 63) / 64 }

// Elem returns the element type of the rows.
func (s *Slab) Elem() vecmath.ElemType { return s.elem }

// Dim returns the number of elements in a row.
func (s *Slab) Dim() int { return s.dim }

// Len returns the number of rows visible now.
func (s *Slab) Len() int { return int(s.count.Load()) }

// Append writes v as the next row and returns its id. Single writer only;
// readers run concurrently and see the row once their View is taken after
// Append returns. v must have the slab's dimension and hold values of its
// element type (ErrValue).
func (s *Slab) Append(v []float32) (uint32, error) {
	if len(v) != s.dim {
		return 0, fmt.Errorf("rows: vector has %d dims, slab holds %d", len(v), s.dim)
	}
	id := int(s.count.Load())
	chunks := *s.table.Load()
	if id>>chunkShift == len(chunks) {
		// Readers keep the table they pinned: growth copies it.
		grown := append(chunks[:len(chunks):len(chunks)], s.newChunk())
		s.table.Store(&grown)
		chunks = grown
	}
	c := chunks[id>>chunkShift]
	o := (id & chunkMask) * s.stride
	if _, bad := s.elem.AppendRow(c[o:o:o+s.stride], v); bad >= 0 {
		return 0, fmt.Errorf("%w: component %d is %v, not a finite %v value", ErrValue, bad, v[bad], s.elem)
	}
	s.writeHead(c, id&chunkMask)
	s.count.Store(int64(id) + 1)
	return uint32(id), nil
}

// writeHead fills the head plane's entries for row i of chunk c from the
// row; a slab without a plane has none to fill.
func (s *Slab) writeHead(c []byte, i int) {
	if s.head == 0 {
		return
	}
	h := ChunkRows*s.stride + i*s.head
	rho, nu := norms(c, s.stride, s.head)
	rho[i], nu[i] = vecmath.Head(c[i*s.stride:(i+1)*s.stride], c[h:h+s.head])
}

// norms is the ρ and ν of chunk c's head plane, rows of stride bytes and
// heads of head bytes.
func norms(c []byte, stride, head int) (rho, nu []float32) {
	all := unsafe.Slice((*float32)(unsafe.Pointer(&c[ChunkRows*(stride+head)])), 2*ChunkRows)
	return all[:ChunkRows:ChunkRows], all[ChunkRows:]
}

// View is a reader's pinned slab: the rows [0, Len()) and the chunks that
// hold them. It stays valid, and its rows unchanged, however the slab grows.
type View struct {
	chunks [][]byte
	n      int
	stride int
	head   int
	elem   vecmath.ElemType
}

// View pins the rows visible now: the count first, then the table.
func (s *Slab) View() View {
	n := int(s.count.Load())
	return View{chunks: *s.table.Load(), n: n, stride: s.stride, head: s.head, elem: s.elem}
}

// Len returns the number of rows in the view.
func (v View) Len() int { return v.n }

// Row is the one accessor: row id's bytes in storage encoding, in place,
// clipped to the row in capacity too, so an append by whoever receives the
// slice reallocates instead of writing into the next row. Read-only.
func (v View) Row(id uint32) []byte {
	o := int(id&chunkMask) * v.stride
	return v.chunks[id>>chunkShift][o : o+v.stride : o+v.stride]
}

// Run is rows start..start+n-1 laid end to end, in place and clipped like
// Row: the exact scan's run of one kernel call. The rows must lie in one
// chunk (start/ChunkRows = (start+n-1)/ChunkRows); a run that straddles
// two panics. Read-only.
func (v View) Run(start uint32, n int) []byte {
	o, rows := int(start&chunkMask)*v.stride, ChunkRows*v.stride
	e := o + n*v.stride
	return v.chunks[start>>chunkShift][:rows:rows][o:e:e]
}

// HeadRun is the head plane's entries for rows start..start+n-1 of a
// float32 slab, in place and clipped like Run: their heads laid end to end,
// vecmath.HeadBytes(Dim) bytes each, and their norms ρ and ν, one float32
// each. The rows must lie in one chunk, as Run's. A slab of any other type
// has no plane, and HeadRun panics on it. Read-only.
func (v View) HeadRun(start uint32, n int) (heads []byte, rho, nu []float32) {
	if v.head == 0 {
		panic("rows: HeadRun on a " + v.elem.String() + " slab, which has no head plane")
	}
	c, i := v.chunks[start>>chunkShift], int(start&chunkMask)
	h := ChunkRows*v.stride + i*v.head
	e := h + n*v.head
	rho, nu = norms(c, v.stride, v.head)
	return c[h:e:e], rho[i : i+n : i+n], nu[i : i+n : i+n]
}

// Decode appends row id's values to dst as float32 (exact: every stored
// value is one) and returns the extended slice.
func (v View) Decode(id uint32, dst []float32) []float32 {
	return v.elem.DecodeRow(v.Row(id), dst)
}

// WriteTo writes the view's rows to w in id order, chunk by chunk: the
// Len()·Dim·Elem.Bytes() bytes FromBytes reads.
func (v View) WriteTo(w io.Writer) (int64, error) {
	var written int64
	for id := 0; id < v.n; id += ChunkRows {
		rows := min(v.n-id, ChunkRows)
		n, err := w.Write(v.chunks[id>>chunkShift][:rows*v.stride])
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}
