// Typed row kernels: the compare kernels of rows held in their element
// type's own bytes (ElemType.AppendRow; internal/rows stores them that way).
//
// The contract is one line: every kernel returns, bit for bit, what
// SquaredL2 / Dot return on the decoded float32 values. For the float types
// that means widening each element to float64 (exact) and reducing in the
// canonical blocked order of kernels.go. For uint8 and int8 every term is an
// integer below 2^17 and every partial sum an integer far below 2^53, so each
// float64 add of the reference is exact, the order of the adds cannot matter,
// and the kernels sum in integer arithmetic and convert once at the end (a
// zero sum to +0, as the reference's zero-seeded accumulators give).
// The reference is symmetric in its two rows, so every kernel is too, bit
// for bit: HNSW construction relies on that to use one distance for both
// directions of a pair (TestRowKernelSymmetric).
//
// The kernels take two rows of equal length holding a whole number of
// elements and do not check it: both rows come from one slab, or one is a
// query engine.Exact has encoded to the slab's row length.
//
// RowKernel4 is the same compare of one query against four rows per call,
// and its contract is the one-row kernel's: out[i] is, bit for bit,
// RowKernel(q, rows[i]). A type without a four-row body gets fourOf, four
// calls of its one-row kernel, so callers never branch on the level.
// RowKernelRun is the compare of one query against a run of rows laid end
// to end (a stretch of a slab chunk): the four-row body over each four rows
// in turn and the one-row kernel over the last 0–3, so out[i] is again
// RowKernel(q, row i) bit for bit.
package vecmath

import (
	"encoding/binary"
	"unsafe"
)

// RowKernel compares two rows in one element type's storage encoding.
type RowKernel func(a, b []byte) float64

// RowKernel4 compares the query q against four rows in one element type's
// storage encoding, each of q's length; out[i] is RowKernel(q, rows[i]).
// The rows may alias each other and q.
type RowKernel4 func(q []byte, rows *[4][]byte, out *[4]float64)

// RowKernelRun compares the query q against the len(out) rows laid end to
// end in rows, each of q's length: out[i] is RowKernel(q, row i), row i
// being bytes i·len(q) to (i+1)·len(q) of rows. rows holds exactly
// len(out)·len(q) bytes.
type RowKernelRun func(q, rows []byte, out []float64)

// rowKernels holds one implementation's kernels: [type][0] squared L2,
// [type][1] dot.
type rowKernels [Float32 + 1][2]RowKernel

// rowKernels4 is rowKernels' four-row table.
type rowKernels4 [Float32 + 1][2]RowKernel4

// rowKernelsRun is rowKernels' run table.
type rowKernelsRun [Float32 + 1][2]RowKernelRun

// RowKernel returns this implementation's compare kernel for rows of type
// t under metric m: the squared L2 distance for L2, the dot product for
// InnerProduct and Cosine (the caller takes the root or negates, as
// Metric.Distance does). Callers fetch it once per engine or index, not per
// compare.
func (im Impl) RowKernel(t ElemType, m Metric) RowKernel {
	if m == L2 {
		return im.rows[t][0]
	}
	return im.rows[t][1]
}

// RowKernel4 returns this implementation's four-row kernel for rows of type
// t under metric m: RowKernel(t, m) on each of four rows.
func (im Impl) RowKernel4(t ElemType, m Metric) RowKernel4 {
	if m == L2 {
		return im.rows4[t][0]
	}
	return im.rows4[t][1]
}

// RowKernelRun returns this implementation's run kernel for rows of type t
// under metric m: RowKernel(t, m) on each row of the run.
func (im Impl) RowKernelRun(t ElemType, m Metric) RowKernelRun {
	if m == L2 {
		return im.runs[t][0]
	}
	return im.runs[t][1]
}

// fourOf is the four-row kernel that calls k once per row.
func fourOf(k RowKernel) RowKernel4 {
	return func(q []byte, rows *[4][]byte, out *[4]float64) {
		for i, r := range rows {
			out[i] = k(q, r)
		}
	}
}

// allFourOf is the four-row table of a one-row table, one row at a time.
func allFourOf(t rowKernels) rowKernels4 {
	var t4 rowKernels4
	for et := range t {
		for m, k := range t[et] {
			t4[et][m] = fourOf(k)
		}
	}
	return t4
}

// runOf is the run kernel that calls k once per row: the scalar table's,
// whose four-row kernels are fourOf(k) anyway.
func runOf(k RowKernel) RowKernelRun {
	return func(q, rows []byte, out []float64) {
		w := len(q)
		for i := range out {
			out[i] = k(q, rows[i*w:(i+1)*w])
		}
	}
}

// allRunOf is the run table of a one-row table, one row at a time.
func allRunOf(t rowKernels) rowKernelsRun {
	var tr rowKernelsRun
	for et := range t {
		for m, k := range t[et] {
			tr[et][m] = runOf(k)
		}
	}
	return tr
}

// scalarRows is the portable reference table.
var scalarRows = rowKernels{
	Uint8:    {intRows[uint8](false), intRows[uint8](true)},
	Int8:     {intRows[int8](false), intRows[int8](true)},
	Float16:  {widenedRows(Float16, scalarSquaredL2), widenedRows(Float16, scalarDot)},
	BFloat16: {widenedRows(BFloat16, scalarSquaredL2), widenedRows(BFloat16, scalarDot)},
	Float32:  {f32Rows(scalarSquaredL2), f32Rows(scalarDot)},
}

// intRows builds the scalar kernel of an 8-bit integer type: integer
// arithmetic, one conversion at the end.
func intRows[T uint8 | int8](dot bool) RowKernel {
	return func(a, b []byte) float64 {
		b = b[:len(a)]
		var s int64
		for i := range a {
			x, y := int64(T(a[i])), int64(T(b[i]))
			if dot {
				s += x * y
			} else {
				s += (x - y) * (x - y)
			}
		}
		return float64(s)
	}
}

// widenedRows builds the scalar kernel of a float type from the float32
// reference kernel: decode one block of each row, run the reference on it,
// add the block's subtotal to the running total. The reference on a single
// block returns 0 + subtotal and on a tail 0 + the left-to-right tail sum,
// and neither is ever -0, so the total is the one the reference computes
// over the whole decoded rows.
func widenedRows(t ElemType, ref func(a, b []float32) float64) RowKernel {
	step := BlockDims * t.Bytes()
	return func(a, b []byte) float64 {
		var va, vb [BlockDims]float32
		total := 0.0
		for len(a) > 0 {
			n := min(len(a), step)
			total += ref(t.DecodeRow(a[:n], va[:0]), t.DecodeRow(b[:n], vb[:0]))
			a, b = a[n:], b[n:]
		}
		return total
	}
}

// f32Rows is widenedRows(Float32, ref) without the copy where the platform
// allows it: on a little-endian machine a 4-byte-aligned fp32 row already is
// the []float32 it encodes (slab rows and the engines' query scratch always
// are aligned), so the reference runs on it in place — on arm64 and under
// ANSMET_NO_SIMD a fp32 compare then costs what it did over [][]float32.
func f32Rows(ref func(a, b []float32) float64) RowKernel {
	decoded := widenedRows(Float32, ref)
	if binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		return decoded
	}
	return func(a, b []byte) float64 {
		pa, pb := unsafe.Pointer(unsafe.SliceData(a)), unsafe.Pointer(unsafe.SliceData(b))
		if (uintptr(pa)|uintptr(pb))&3 != 0 {
			return decoded(a, b)
		}
		return ref(unsafe.Slice((*float32)(pa), len(a)/4), unsafe.Slice((*float32)(pb), len(a)/4))
	}
}
