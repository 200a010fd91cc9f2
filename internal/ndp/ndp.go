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
// timing model runs the software engines, and faults are injected at that
// engine level (internal/fault), never on this interface.
//
// # Protocol hardening
//
// The link between host and NDP unit crosses a DIMM connector; a single
// flipped bit in a command payload would silently reconfigure a unit or
// compare against the wrong vector. Every 64 B payload therefore reserves
// its last byte for a CRC-8 (poly 0x07) over the first 63 bytes, leaving
// PayloadDataBytes of payload proper. Decoders validate the CRC and the
// decoded fields and reject corrupt payloads with typed *ProtocolError
// values instead of acting on garbage. The CRC detects all single-bit and
// all burst errors up to 8 bits per payload.
//
// The hardening costs one set-search task slot (7 data-carrying tasks per
// payload instead of 8 — the QSHR task array stays 8 wide) and shrinks each
// set-query chunk to 63 query bytes.
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

// PayloadDataBytes is the data capacity of one 64 B payload; the final byte
// carries the CRC-8 of the rest.
const PayloadDataBytes = 63

// MaxTasksPerPayload is how many 8 B comparison tasks fit in one hardened
// set-search payload (the CRC byte displaces the eighth task).
const MaxTasksPerPayload = PayloadDataBytes / 8

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

// Typed payload-rejection causes, matched with errors.Is.
var (
	// ErrCRC flags a payload whose CRC-8 does not cover its content — the
	// payload was corrupted in transit and must not be acted on.
	ErrCRC = errors.New("payload CRC mismatch")
	// ErrBadField flags a payload that passed the CRC but decodes to
	// out-of-range field values (host-side encoding bug or undetected
	// multi-bit corruption).
	ErrBadField = errors.New("invalid payload field")
)

// ProtocolError is the typed error for rejected payloads; Err is one of the
// sentinel causes above (or a wrapped lower-layer error) and unwraps for
// errors.Is.
type ProtocolError struct {
	Op  Opcode
	Err error
}

// Error implements error.
func (e *ProtocolError) Error() string { return fmt.Sprintf("ndp: %s: %v", e.Op, e.Err) }

// Unwrap exposes the cause.
func (e *ProtocolError) Unwrap() error { return e.Err }

// crc8 computes CRC-8 (poly 0x07, init 0) over data.
func crc8(data []byte) byte {
	var crc byte
	for _, b := range data {
		crc ^= b
		for i := 0; i < 8; i++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ 0x07
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// Seal writes the payload's CRC-8 into its reserved last byte. Encoders
// call it automatically; it is exported so tests can re-seal hand-built
// payloads.
func Seal(p *[64]byte) { p[PayloadDataBytes] = crc8(p[:PayloadDataBytes]) }

// checkCRC reports whether the payload's CRC matches its content.
func checkCRC(p [64]byte) bool { return p[PayloadDataBytes] == crc8(p[:PayloadDataBytes]) }

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
	Seal(&p)
	return p
}

// DecodeConfigure unpacks and validates a configure payload, rejecting
// corrupt or out-of-range content with a typed *ProtocolError.
func DecodeConfigure(p [64]byte) (Config, error) {
	if !checkCRC(p) {
		return Config{}, &ProtocolError{OpConfigure, ErrCRC}
	}
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

// EncodeSetSearch packs up to MaxTasksPerPayload tasks into one 64 B DDR
// WRITE (8 B per task: 4 B vector address + 4 B threshold, filling the
// payload as Fig. 5(e) shows, minus the CRC byte). The task count travels
// in the instruction's DDR address alongside the QSHR id, and is returned
// for the caller to encode there.
func EncodeSetSearch(tasks []Task) (payload [64]byte, count int, err error) {
	if len(tasks) == 0 || len(tasks) > MaxTasksPerPayload {
		return payload, 0, fmt.Errorf("ndp: %d tasks, want 1..%d", len(tasks), MaxTasksPerPayload)
	}
	for i, t := range tasks {
		if math.IsNaN(float64(t.Threshold)) {
			return payload, 0, fmt.Errorf("ndp: task %d has NaN threshold", i)
		}
		binary.LittleEndian.PutUint32(payload[i*8:], t.Addr)
		binary.LittleEndian.PutUint32(payload[i*8+4:], math.Float32bits(t.Threshold))
	}
	Seal(&payload)
	return payload, len(tasks), nil
}

// DecodeSetSearch unpacks and validates a set-search payload carrying n
// tasks, rejecting corrupt payloads and NaN thresholds with a typed
// *ProtocolError.
func DecodeSetSearch(p [64]byte, n int) ([]Task, error) {
	if !checkCRC(p) {
		return nil, &ProtocolError{OpSetSearch, ErrCRC}
	}
	if n < 1 || n > MaxTasksPerPayload {
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
// set-query payloads, PayloadDataBytes of element data per chunk (the QSHR
// query field is 1 kB, §5.2, so up to ⌈1024/63⌉ = 17 chunks). Elements are
// stored in the element type's native width, little-endian.
func EncodeQueryChunks(elem vecmath.ElemType, q []float32) ([][64]byte, error) {
	bytesPer := elem.Bytes()
	total := len(q) * bytesPer
	if total > 1024 {
		return nil, fmt.Errorf("ndp: query of %d B exceeds the 1 kB QSHR field", total)
	}
	raw := make([]byte, (total+PayloadDataBytes-1)/PayloadDataBytes*PayloadDataBytes)
	for d, v := range q {
		code := elem.Encode(v)
		bits := nativeBits(elem, code)
		switch bytesPer {
		case 1:
			raw[d] = byte(bits)
		case 2:
			binary.LittleEndian.PutUint16(raw[d*2:], uint16(bits))
		case 4:
			binary.LittleEndian.PutUint32(raw[d*4:], bits)
		}
	}
	out := make([][64]byte, len(raw)/PayloadDataBytes)
	for i := range out {
		copy(out[i][:PayloadDataBytes], raw[i*PayloadDataBytes:])
		Seal(&out[i])
	}
	return out, nil
}

// DecodeQuery reconstructs the query values from accumulated chunks,
// validating each chunk's CRC.
func DecodeQuery(elem vecmath.ElemType, dim int, chunks [][64]byte) ([]float32, error) {
	bytesPer := elem.Bytes()
	need := (dim*bytesPer + PayloadDataBytes - 1) / PayloadDataBytes
	if dim <= 0 {
		return nil, &ProtocolError{OpSetQuery, fmt.Errorf("%w: dimension %d", ErrBadField, dim)}
	}
	if len(chunks) < need {
		return nil, fmt.Errorf("ndp: query needs %d chunks, have %d", need, len(chunks))
	}
	raw := make([]byte, len(chunks)*PayloadDataBytes)
	for i, c := range chunks {
		if !checkCRC(c) {
			return nil, &ProtocolError{OpSetQuery, fmt.Errorf("chunk %d: %w", i, ErrCRC)}
		}
		copy(raw[i*PayloadDataBytes:], c[:PayloadDataBytes])
	}
	out := make([]float32, dim)
	for d := range out {
		var bits uint32
		switch bytesPer {
		case 1:
			bits = uint32(raw[d])
		case 2:
			bits = uint32(binary.LittleEndian.Uint16(raw[d*2:]))
		case 4:
			bits = binary.LittleEndian.Uint32(raw[d*4:])
		}
		out[d] = float32(elem.Decode(nativeCode(elem, bits)))
	}
	return out, nil
}

// nativeBits converts an order-preserving code back to the element's native
// bit pattern (what travels on the wire).
func nativeBits(elem vecmath.ElemType, code uint32) uint32 {
	switch elem {
	case vecmath.Uint8:
		return code
	case vecmath.Int8:
		return code ^ 0x80
	case vecmath.Float16, vecmath.BFloat16:
		if code&0x8000 != 0 {
			return code &^ 0x8000
		}
		return (^code) & 0xffff
	default: // Float32
		if code&0x80000000 != 0 {
			return code &^ 0x80000000
		}
		return ^code
	}
}

// nativeCode converts native wire bits to the order-preserving code.
func nativeCode(elem vecmath.ElemType, bits uint32) uint32 {
	switch elem {
	case vecmath.Uint8:
		return bits
	case vecmath.Int8:
		return bits ^ 0x80
	case vecmath.Float16, vecmath.BFloat16:
		if bits&0x8000 != 0 {
			return (^bits) & 0xffff
		}
		return bits | 0x8000
	default:
		if bits&0x80000000 != 0 {
			return ^bits
		}
		return bits | 0x80000000
	}
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
	// monotonicity invariant or ran out of rank data — silent corruption
	// the host must not trust.
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
	Seal(&p)
	return p
}

// DecodePollResponse unpacks a poll payload, rejecting corrupt responses
// with a typed *ProtocolError.
func DecodePollResponse(p [64]byte) (PollResponse, error) {
	if !checkCRC(p) {
		return PollResponse{}, &ProtocolError{OpPoll, ErrCRC}
	}
	var r PollResponse
	for i := range r.Dist {
		r.Dist[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[i*4:]))
	}
	r.DoneMask = p[32]
	r.FetchCnt = binary.LittleEndian.Uint16(p[33:])
	r.Completed = p[35] == 1
	r.FaultMask = p[36]
	return r, nil
}
