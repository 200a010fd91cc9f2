package ndp

import (
	"fmt"
	"math"

	"ansmet/internal/bitplane"
)

// qshr is one query-status handling register set (Fig. 5(c)).
type qshr struct {
	chunks    [][64]byte
	recv      uint16 // bit s is set once chunk s has arrived
	query     []float32
	tasks     []Task
	results   [TasksPerQSHR]float32
	doneMask  uint8
	faultMask uint8
	fetchCnt  uint16
	haveQ     bool
	haveS     bool
	done      bool
}

// Unit is a functional NDP unit: it consumes DDR-encoded instructions and
// executes comparison tasks against its rank's data. It is deterministic
// and single-threaded, mirroring the sequential per-QSHR task processing of
// §5.2. Instruction payloads with out-of-range fields are rejected, and
// task execution enforces the early-termination bound invariant (the
// running lower bound is monotonically non-decreasing); violations — rank
// data shorter than the configured footprint, non-monotone or NaN bounds —
// mark the task in the poll response's FaultMask instead of returning a
// corrupt distance.
type Unit struct {
	data SliceRank

	cfg     Config
	layout  *bitplane.Layout
	bounder *bitplane.Bounder
	qshrs   [NumQSHRs]qshr
	cfgOK   bool
}

// NewUnit creates a unit over its rank's data.
func NewUnit(data SliceRank) *Unit { return &Unit{data: data} }

// Configure applies a configure instruction.
func (u *Unit) Configure(payload [64]byte) error {
	c, err := DecodeConfigure(payload)
	if err != nil {
		return err
	}
	sched := c.Schedule()
	l, err := bitplane.NewLayout(c.Elem, int(c.Dim), sched)
	if err != nil {
		return fmt.Errorf("ndp: configure: %w", err)
	}
	u.cfg = c
	u.layout = l
	u.bounder = bitplane.NewBounder(l, c.Metric, c.PrefixVal)
	u.cfgOK = true
	for i := range u.qshrs {
		u.qshrs[i] = qshr{}
	}
	return nil
}

// SetQuery applies one set-query chunk (seq is the chunk index encoded in
// the DDR address, §5.2). Chunks may arrive in any order: the query is
// finalized once every chunk of the configured query has arrived, and tasks
// waiting in the QSHR then execute. A chunk index past the query field is
// rejected.
func (u *Unit) SetQuery(id, seq int, payload [64]byte) error {
	if !u.cfgOK {
		return fmt.Errorf("ndp: set-query before configure")
	}
	if id < 0 || id >= NumQSHRs {
		return fmt.Errorf("ndp: QSHR id %d out of range", id)
	}
	if seq < 0 || seq >= QueryFieldBytes/64 {
		return &ProtocolError{OpSetQuery, fmt.Errorf("%w: chunk index %d", ErrBadField, seq)}
	}
	q := &u.qshrs[id]
	for len(q.chunks) <= seq {
		q.chunks = append(q.chunks, [64]byte{})
	}
	q.chunks[seq] = payload
	q.recv |= 1 << seq
	need := (int(u.cfg.Dim)*u.cfg.Elem.Bytes() + 63) / 64
	if all := uint16(1<<need - 1); q.recv&all == all {
		query, err := DecodeQuery(u.cfg.Elem, int(u.cfg.Dim), q.chunks)
		if err != nil {
			return err
		}
		q.query = query
		q.haveQ = true
		u.maybeRun(q)
	}
	return nil
}

// SetSearch applies a set-search instruction: up to TasksPerQSHR
// comparison tasks for one QSHR (count comes from the DDR address
// encoding). Per the paper's optimization, set-search may arrive before
// set-query; the QSHR starts once both are present.
func (u *Unit) SetSearch(id, count int, payload [64]byte) error {
	if !u.cfgOK {
		return fmt.Errorf("ndp: set-search before configure")
	}
	if id < 0 || id >= NumQSHRs {
		return fmt.Errorf("ndp: QSHR id %d out of range", id)
	}
	tasks, err := DecodeSetSearch(payload, count)
	if err != nil {
		return err
	}
	q := &u.qshrs[id]
	q.tasks = tasks
	q.haveS = true
	q.done = false
	q.doneMask = 0
	q.faultMask = 0
	q.fetchCnt = 0
	for i := range q.results {
		q.results[i] = InvalidDist
	}
	u.maybeRun(q)
	return nil
}

// maybeRun executes the QSHR's tasks once both query and tasks are present.
func (u *Unit) maybeRun(q *qshr) {
	if !q.haveQ || !q.haveS || q.done {
		return
	}
	u.bounder.ResetQuery(q.query)
	full := u.layout.LinesPerVector()
	for ti, task := range q.tasks {
		data := u.data.VectorData(task.Addr)
		lb, lines, ok := u.runTask(data, float64(task.Threshold), full)
		q.fetchCnt += uint16(lines)
		if !ok {
			q.faultMask |= 1 << uint(ti)
		} else if lines == full && lb <= float64(task.Threshold) {
			// Within threshold: write the exact distance to the result
			// register (§5.2); rejections leave the invalid MAX value.
			q.results[ti] = float32(lb)
		}
		q.doneMask |= 1 << uint(ti)
	}
	q.done = true
}

// runTask executes one comparison with early termination, enforcing the
// bound-sanity invariant: each consumed line may only tighten (raise) the
// lower bound, and bounds are never NaN. A violation, or rank data shorter
// than the configured footprint, reports ok=false — the result register
// must not be trusted.
func (u *Unit) runTask(data []byte, threshold float64, full int) (lb float64, lines int, ok bool) {
	if len(data) < full*bitplane.LineBytes {
		return 0, 0, false
	}
	u.bounder.Reset()
	prev := math.Inf(-1)
	for lines < full {
		lb = u.bounder.ConsumeNext(data[lines*bitplane.LineBytes : (lines+1)*bitplane.LineBytes])
		lines++
		if math.IsNaN(lb) || lb < prev {
			return lb, lines, false
		}
		prev = lb
		if lb > threshold {
			break
		}
	}
	return lb, lines, true
}

// Poll returns the QSHR's encoded result payload (a DDR READ in hardware).
func (u *Unit) Poll(id int) ([64]byte, error) {
	if id < 0 || id >= NumQSHRs {
		return [64]byte{}, fmt.Errorf("ndp: QSHR id %d out of range", id)
	}
	q := &u.qshrs[id]
	r := PollResponse{
		DoneMask: q.doneMask, FetchCnt: q.fetchCnt,
		Completed: q.done, FaultMask: q.faultMask,
	}
	copy(r.Dist[:], q.results[:])
	return r.Encode(), nil
}

// Free releases a QSHR for reuse (the host's responsibility, §5.2).
func (u *Unit) Free(id int) {
	if id >= 0 && id < NumQSHRs {
		u.qshrs[id] = qshr{}
	}
}

// SliceRank is the unit's view of its local DRAM rank: a contiguous slab
// of equally sized transformed vectors (addr = vector index). Out-of-range
// addresses return nil rather than panicking — the unit reports them
// through the poll response's FaultMask.
type SliceRank struct {
	Bytes       []byte
	VectorBytes int
}

// VectorData returns the full transformed bytes of the vector at addr.
func (s SliceRank) VectorData(addr uint32) []byte {
	if s.VectorBytes <= 0 {
		return nil
	}
	off := int(addr) * s.VectorBytes
	if off < 0 || off+s.VectorBytes > len(s.Bytes) {
		return nil
	}
	return s.Bytes[off : off+s.VectorBytes]
}
