package ndp

import (
	"fmt"
	"math"

	"ansmet/internal/engine"
	"ansmet/internal/vecmath"
)

// DefaultPollBudget is how many poll READs the adapter issues for one
// comparison before declaring the unit stuck.
const DefaultPollBudget = 8

// HostAdapter drives an NDP Device purely through the DDR instruction
// protocol and exposes it as an engine.Engine, so a whole index search can
// run over the hardware interface. It models the host side of §5.2:
// configure the device, allocate a QSHR, install the query with set-query
// WRITEs, issue set-search tasks, poll for results, and free the QSHR.
//
// Rejected comparisons come back as the invalid MAX register value; the
// hardware does not return their lower bounds, so the adapter reports +Inf
// as the (unused) distance of rejections.
//
// TryCompare is the hardened entry point: it validates every poll response
// (CRC, completion, fault bits) and returns typed errors instead of acting
// on corrupt data. Compare panics on those errors; wrap the adapter in an
// fault.Resilient to retry and fall back gracefully instead.
type HostAdapter struct {
	dev Device
	cfg Config

	qshr      int
	installed bool
	query     []float32
	lines     int

	// PollBudget bounds how many polls one comparison may take before the
	// unit is declared stuck (DefaultPollBudget when zero-constructed
	// through NewHostAdapter).
	PollBudget int
}

// NewHostAdapter configures the device over the protocol and wraps it.
func NewHostAdapter(dev Device, cfg Config) (*HostAdapter, error) {
	if err := dev.Configure(EncodeConfigure(cfg)); err != nil {
		return nil, fmt.Errorf("ndp: adapter configure: %w", err)
	}
	lines := dev.LinesPerVector()
	if lines <= 0 {
		return nil, fmt.Errorf("ndp: adapter over unconfigured device")
	}
	return &HostAdapter{dev: dev, cfg: cfg, lines: lines, PollBudget: DefaultPollBudget}, nil
}

var _ engine.Engine = (*HostAdapter)(nil)
var _ engine.Fallible = (*HostAdapter)(nil)

// StartQuery implements engine.Engine: the query installs lazily on the
// first comparison (mirroring the set-search-before-set-query optimization).
func (h *HostAdapter) StartQuery(q []float32) {
	h.query = q
	h.installed = false
	h.dev.Free(h.qshr)
	h.qshr = (h.qshr + 1) % NumQSHRs
}

// TryCompare implements engine.Fallible via one set-search + poll round
// trip, returning a typed error when the protocol interaction fails:
// corrupt payloads (ErrCRC), a stuck unit (ErrStuck), or a task the unit
// flagged as fault-corrupted (ErrBound).
func (h *HostAdapter) TryCompare(id uint32, threshold float64) (engine.Result, error) {
	payload, cnt, err := EncodeSetSearch([]Task{{Addr: id, Threshold: float32(threshold)}})
	if err != nil {
		return engine.Result{}, err
	}
	if err := h.dev.SetSearch(h.qshr, cnt, payload); err != nil {
		return engine.Result{}, err
	}
	if !h.installed {
		chunks, err := EncodeQueryChunks(h.cfg.Elem, h.query)
		if err != nil {
			return engine.Result{}, err
		}
		for seq, c := range chunks {
			if err := h.dev.SetQuery(h.qshr, seq, c); err != nil {
				return engine.Result{}, err
			}
		}
		h.installed = true
	}
	budget := h.PollBudget
	if budget <= 0 {
		budget = DefaultPollBudget
	}
	var resp PollResponse
	completed := false
	for polls := 0; polls < budget && !completed; polls++ {
		raw, err := h.dev.Poll(h.qshr)
		if err != nil {
			return engine.Result{}, err
		}
		resp, err = DecodePollResponse(raw)
		if err != nil {
			return engine.Result{}, err
		}
		completed = resp.Completed
	}
	if !completed {
		return engine.Result{}, &ProtocolError{OpPoll, ErrStuck}
	}
	if resp.FaultMask&1 != 0 {
		return engine.Result{}, &ProtocolError{OpPoll, ErrBound}
	}
	// set-search resets the fetch counter, so it reads as this task's cost.
	lines := int(resp.FetchCnt)
	if resp.Dist[0] == InvalidDist {
		return engine.Result{Dist: math.Inf(1), Lines: lines, LinesLocal: lines}, nil
	}
	return engine.Result{
		Dist: float64(resp.Dist[0]), Accepted: true,
		Lines: lines, LinesLocal: lines,
	}, nil
}

// Compare implements engine.Engine; it panics on protocol errors (use
// TryCompare, or a fault.Resilient wrapper, on a faulty device).
func (h *HostAdapter) Compare(id uint32, threshold float64) engine.Result {
	res, err := h.TryCompare(id, threshold)
	if err != nil {
		panic(err)
	}
	return res
}

// LinesPerVector implements engine.Engine.
func (h *HostAdapter) LinesPerVector() int { return h.lines }

// Metric implements engine.Engine.
func (h *HostAdapter) Metric() vecmath.Metric { return h.cfg.Metric }
