// Package ndp models the DIMM-side NDP unit's hardware interface (paper
// §5.2, Fig. 5): the four DDR-encoded instructions — configure, set-query,
// set-search and poll — and a functional query-status-handling-register
// (QSHR) unit that executes comparison tasks against its rank's transformed
// vector data with early termination.
//
// The timing of NDP execution lives in internal/sim; this package is the
// *functional* hardware-interface layer: field packing into the 64 B DDR
// payloads exactly as Fig. 5(e) sketches, QSHR state (query data, an array
// of 8 comparison tasks with thresholds, result registers initialized to an
// invalid MAX value, fetch counters), and the fetch/bound/terminate loop.
// Its results are bit-compatible with the software ETEngine
// (internal/core), which the tests verify. A host drives the Unit
// directly, one instruction at a time (examples/hardware_protocol); the
// timing model runs the software engines.
//
// # Payloads and validation
//
// Every payload is 64 data bytes: a set-search carries TasksPerQSHR tasks
// and a set-query chunk 64 query bytes, the counts the timing model charges
// (sim.NDPParams.TasksPerSetSearch, sim.Config.QueryLines). Decoders
// validate the decoded fields and reject out-of-range content — an unknown
// element type or metric, a query wider than the QSHR's QueryFieldBytes, a
// non-finite query component, a NaN threshold — with a typed
// *ProtocolError wrapping ErrBadField instead of acting on it. Task
// execution checks what the unit is handed: an address past its rank's data
// or a non-monotone or NaN bound marks the task in the poll response's
// FaultMask.
package ndp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"ansmet/internal/bitplane"
	"ansmet/internal/vecmath"
)

// NumQSHRs is the per-unit QSHR count (Table 1).
const NumQSHRs = 32

// TasksPerQSHR is the comparison-task array length of one QSHR (Fig. 5(c)).
const TasksPerQSHR = 8

// QueryFieldBytes is the size of a QSHR's query field (1 kB, §5.2): the
// widest query a unit can hold, installed in QueryFieldBytes/64 set-query
// chunks at most.
const QueryFieldBytes = 1024

// InvalidDist is the initialization value of result registers ("an invalid
// MAX value", §5.2).
const InvalidDist = math.MaxFloat32

// Opcode identifies the NDP instruction encoded in a reserved DDR address.
type Opcode uint8

const (
	OpConfigure Opcode = iota
	OpSetQuery
	OpSetSearch
	OpPoll
)

var opcodeNames = [...]string{"configure", "set-query", "set-search", "poll"}

// String returns the instruction mnemonic.
func (o Opcode) String() string {
	if int(o) >= len(opcodeNames) {
		return fmt.Sprintf("Opcode(%d)", int(o))
	}
	return opcodeNames[o]
}

// ErrBadField flags a payload that decodes to out-of-range field values,
// matched with errors.Is.
var ErrBadField = errors.New("invalid payload field")

// ProtocolError is the typed error for rejected payloads; Err wraps
// ErrBadField and unwraps for errors.Is.
type ProtocolError struct {
	Op  Opcode
	Err error
}

// Error implements error.
func (e *ProtocolError) Error() string { return fmt.Sprintf("ndp: %s: %v", e.Op, e.Err) }

// Unwrap exposes the cause.
func (e *ProtocolError) Unwrap() error { return e.Err }

// Config is the payload of the configure instruction: element type, vector
// dimension, distance metric and the early-termination parameters
// (including the on-chip common prefix).
type Config struct {
	Elem       vecmath.ElemType
	Dim        uint16
	Metric     vecmath.Metric
	PrefixLen  uint8
	PrefixVal  uint32
	Nc, Tc, Nf uint8
}

// Validate checks the configuration's fields against the hardware's ranges.
func (c Config) Validate() error {
	if c.Elem < vecmath.Uint8 || c.Elem > vecmath.Float32 {
		return fmt.Errorf("%w: element type %d", ErrBadField, int(c.Elem))
	}
	if c.Metric < vecmath.L2 || c.Metric > vecmath.Cosine {
		return fmt.Errorf("%w: metric %d", ErrBadField, int(c.Metric))
	}
	if c.Dim == 0 {
		return fmt.Errorf("%w: zero dimension", ErrBadField)
	}
	if int(c.Dim)*c.Elem.Bytes() > QueryFieldBytes {
		return fmt.Errorf("%w: %d-dim %v query exceeds the %d B QSHR field", ErrBadField, c.Dim, c.Elem, QueryFieldBytes)
	}
	if int(c.PrefixLen) >= c.Elem.Bits() {
		return fmt.Errorf("%w: prefix %d out of range for %v", ErrBadField, c.PrefixLen, c.Elem)
	}
	if c.Nc > 0 && c.Nf == 0 {
		return fmt.Errorf("%w: dual schedule with zero fine step", ErrBadField)
	}
	if err := c.Schedule().Validate(c.Elem); err != nil {
		return fmt.Errorf("%w: %v", ErrBadField, err)
	}
	return nil
}

// EncodeConfigure packs the configure payload into a 64 B DDR WRITE.
func EncodeConfigure(c Config) [64]byte {
	var p [64]byte
	p[0] = byte(c.Elem)
	p[1] = byte(c.Metric)
	binary.LittleEndian.PutUint16(p[2:], c.Dim)
	p[4] = c.PrefixLen
	binary.LittleEndian.PutUint32(p[5:], c.PrefixVal)
	p[9], p[10], p[11] = c.Nc, c.Tc, c.Nf
	return p
}

// DecodeConfigure unpacks and validates a configure payload, rejecting
// out-of-range content with a typed *ProtocolError.
func DecodeConfigure(p [64]byte) (Config, error) {
	c := Config{
		Elem:      vecmath.ElemType(p[0]),
		Metric:    vecmath.Metric(p[1]),
		Dim:       binary.LittleEndian.Uint16(p[2:]),
		PrefixLen: p[4],
		PrefixVal: binary.LittleEndian.Uint32(p[5:]),
		Nc:        p[9], Tc: p[10], Nf: p[11],
	}
	if err := c.Validate(); err != nil {
		return Config{}, &ProtocolError{OpConfigure, err}
	}
	return c, nil
}

// Schedule materializes the configured fetch schedule.
func (c Config) Schedule() bitplane.Schedule {
	if c.Nc == 0 {
		return bitplane.PlainSchedule(c.Elem)
	}
	return bitplane.DualSchedule(c.Elem, int(c.PrefixLen), int(c.Nc), int(c.Tc), int(c.Nf))
}

// Task is one comparison task of a set-search instruction: the search
// vector's address and the rejection threshold (4 B each, Fig. 5(e)).
type Task struct {
	Addr      uint32
	Threshold float32
}

// EncodeSetSearch packs up to TasksPerQSHR tasks into one 64 B DDR WRITE
// (8 B per task: 4 B vector address + 4 B threshold, filling the payload as
// Fig. 5(e) shows). The task count travels in the instruction's DDR address
// alongside the QSHR id, and is returned for the caller to encode there.
func EncodeSetSearch(tasks []Task) (payload [64]byte, count int, err error) {
	if len(tasks) == 0 || len(tasks) > TasksPerQSHR {
		return payload, 0, fmt.Errorf("ndp: %d tasks, want 1..%d", len(tasks), TasksPerQSHR)
	}
	for i, t := range tasks {
		if math.IsNaN(float64(t.Threshold)) {
			return payload, 0, fmt.Errorf("ndp: task %d has NaN threshold", i)
		}
		binary.LittleEndian.PutUint32(payload[i*8:], t.Addr)
		binary.LittleEndian.PutUint32(payload[i*8+4:], math.Float32bits(t.Threshold))
	}
	return payload, len(tasks), nil
}

// DecodeSetSearch unpacks and validates a set-search payload carrying n
// tasks, rejecting an out-of-range count and NaN thresholds with a typed
// *ProtocolError.
func DecodeSetSearch(p [64]byte, n int) ([]Task, error) {
	if n < 1 || n > TasksPerQSHR {
		return nil, &ProtocolError{OpSetSearch, fmt.Errorf("%w: task count %d", ErrBadField, n)}
	}
	out := make([]Task, n)
	for i := range out {
		out[i] = Task{
			Addr:      binary.LittleEndian.Uint32(p[i*8:]),
			Threshold: math.Float32frombits(binary.LittleEndian.Uint32(p[i*8+4:])),
		}
		if math.IsNaN(float64(out[i].Threshold)) {
			return nil, &ProtocolError{OpSetSearch, fmt.Errorf("%w: task %d threshold is NaN", ErrBadField, i)}
		}
	}
	return out, nil
}

// EncodeQueryChunks serializes a query vector into the sequence of 64 B
// set-query payloads: the query's row in the element type's storage
// encoding (vecmath.ElemType.AppendRow, the encoding of internal/rows and
// the WAL), cut into one chunk per 64 B line, up to QueryFieldBytes/64
// chunks. A component that is not finite or not a value of the type is
// refused, never rounded.
func EncodeQueryChunks(elem vecmath.ElemType, q []float32) ([][64]byte, error) {
	if total := len(q) * elem.Bytes(); total > QueryFieldBytes {
		return nil, fmt.Errorf("ndp: query of %d B exceeds the %d B QSHR field", total, QueryFieldBytes)
	}
	row, bad := elem.AppendRow(nil, q)
	if bad >= 0 {
		return nil, fmt.Errorf("ndp: query component %d (%v) is not a finite %v value", bad, q[bad], elem)
	}
	out := make([][64]byte, (len(row)+63)/64)
	for i := range out {
		copy(out[i][:], row[i*64:])
	}
	return out, nil
}

// DecodeQuery reconstructs the query values from accumulated chunks: the
// row in the first dim·Bytes bytes, decoded (vecmath.ElemType.DecodeRow).
// A non-finite component is rejected with a typed *ProtocolError.
func DecodeQuery(elem vecmath.ElemType, dim int, chunks [][64]byte) ([]float32, error) {
	if dim <= 0 {
		return nil, &ProtocolError{OpSetQuery, fmt.Errorf("%w: dimension %d", ErrBadField, dim)}
	}
	n := dim * elem.Bytes()
	need := (n + 63) / 64
	if len(chunks) < need {
		return nil, fmt.Errorf("ndp: query needs %d chunks, have %d", need, len(chunks))
	}
	row := make([]byte, 0, need*64)
	for _, c := range chunks[:need] {
		row = append(row, c[:]...)
	}
	out := elem.DecodeRow(row[:n], make([]float32, 0, dim))
	for d, v := range out {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return nil, &ProtocolError{OpSetQuery, fmt.Errorf("%w: query component %d is %v", ErrBadField, d, v)}
		}
	}
	return out, nil
}

// PollResponse is the 64 B payload returned by a poll READ: the eight
// result registers (fp32 distances; InvalidDist while pending or rejected-
// invalid) plus a done bitmap, the fetch counter, and the fault bitmap of
// tasks whose execution tripped a hardware invariant (Fig. 5(c)).
type PollResponse struct {
	Dist      [TasksPerQSHR]float32
	DoneMask  uint8
	FetchCnt  uint16
	Completed bool
	// FaultMask marks tasks whose bound computation violated the
	// monotonicity invariant or whose address ran past the rank's data;
	// their result registers hold InvalidDist.
	FaultMask uint8
}

// Encode packs the response payload.
func (r PollResponse) Encode() [64]byte {
	var p [64]byte
	for i, d := range r.Dist {
		binary.LittleEndian.PutUint32(p[i*4:], math.Float32bits(d))
	}
	p[32] = r.DoneMask
	binary.LittleEndian.PutUint16(p[33:], r.FetchCnt)
	if r.Completed {
		p[35] = 1
	}
	p[36] = r.FaultMask
	return p
}

// DecodePollResponse unpacks a poll payload.
func DecodePollResponse(p [64]byte) PollResponse {
	var r PollResponse
	for i := range r.Dist {
		r.Dist[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[i*4:]))
	}
	r.DoneMask = p[32]
	r.FetchCnt = binary.LittleEndian.Uint16(p[33:])
	r.Completed = p[35] == 1
	r.FaultMask = p[36]
	return r
}
