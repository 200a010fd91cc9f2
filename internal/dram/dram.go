// Package dram models a DDR5 memory system at command granularity for the
// ANSMET timing simulation (paper §6, Table 1): 4 channels × 2 DIMMs × 4
// ranks × 8 bank groups × 4 banks, DDR5-4800 timing with RCD-CAS-RP =
// 40-40-40 DRAM cycles.
//
// The model is a deterministic resource-reservation simulator: every bank
// tracks its open row and earliest-next-command time; every data bus (the
// per-channel host DQ bus, and the per-rank internal bus that DIMM-side NDP
// units use) tracks its busy-until time. A 64 B access issued at time t is
// serialized through those reservations, yielding its completion time. Row
// hits pay only CAS latency; row misses pay precharge + activate. This
// reproduces the first-order behaviour that drives the paper's results —
// rank-level NDP enjoys ranks×per-rank bandwidth (8× the host's 4-channel
// bandwidth in the default configuration) while the host shares one DQ bus
// per 8 ranks.
package dram

import "fmt"

// Timing holds DDR timing parameters in nanoseconds.
type Timing struct {
	TRCD float64 // activate -> column command
	TCL  float64 // column command -> first data
	TRP  float64 // precharge
	TBL  float64 // burst transfer of 64 B on a data bus
	TCCD float64 // min column-command spacing on one bank
	// Refresh: every TREFI the rank is blocked for TRFC (all-bank refresh;
	// real controllers stagger per rank — modeled as aligned windows).
	// TREFI <= 0 disables refresh.
	TREFI float64
	TRFC  float64
}

// DDR5_4800 is the paper's Table 1 configuration: 40-40-40 at tCK=0.4167ns
// and BL16 on a 64-bit channel.
func DDR5_4800() Timing {
	const tck = 1.0 / 2.4 // ns at 2400 MHz
	return Timing{
		TRCD:  40 * tck,
		TCL:   40 * tck,
		TRP:   40 * tck,
		TBL:   8 * tck, // 16 beats on 2 32-bit subchannels
		TCCD:  8 * tck,
		TREFI: 3900,
		TRFC:  295,
	}
}

// Config describes the memory system topology.
type Config struct {
	Channels        int
	DIMMsPerChannel int
	RanksPerDIMM    int
	BankGroups      int
	BanksPerGroup   int
	RowBytes        int // row-buffer reach per bank
	Timing          Timing
}

// DefaultConfig is the paper's system: 4 ch × 2 DIMMs × 4 ranks,
// 8 BG × 4 banks (32 ranks, 32 banks each).
func DefaultConfig() Config {
	return Config{
		Channels: 4, DIMMsPerChannel: 2, RanksPerDIMM: 4,
		BankGroups: 8, BanksPerGroup: 4,
		RowBytes: 8192,
		Timing:   DDR5_4800(),
	}
}

// Ranks returns the total rank count (= NDP unit count, one per rank).
func (c Config) Ranks() int { return c.Channels * c.DIMMsPerChannel * c.RanksPerDIMM }

// BanksPerRank returns banks per rank.
func (c Config) BanksPerRank() int { return c.BankGroups * c.BanksPerGroup }

// Addr names one 64 B line's physical location.
type Addr struct {
	Rank int
	Bank int
	Row  int64
}

// Stats accumulates traffic and energy-relevant counters.
type Stats struct {
	Reads      uint64
	Writes     uint64
	RowHits    uint64
	RowMisses  uint64
	Activates  uint64
	Refreshes  uint64 // commands delayed by a refresh blackout
	HostBytes  uint64 // bytes moved over channel DQ buses
	NDPBytes   uint64 // bytes moved over rank-internal buses
	RankReads  []uint64
	RankBusyNs []float64 // rank-internal bus occupancy
}

type bank struct {
	openRow int64
	nextCmd float64
}

// Memory is the reservation-based timing model. It is not safe for
// concurrent use; the simulation is single-threaded and deterministic.
// Data buses are slot-allocated with backfill (see slotBus); banks use
// frontier reservations.
type Memory struct {
	cfg     Config
	banks   [][]bank   // [rank][bank]
	rankBus []*slotBus // per-rank internal bus (NDP path)
	chBus   []*slotBus // per-channel DQ bus (host path)
	stats   Stats
}

// New builds the memory system with all banks closed.
func New(cfg Config) *Memory {
	if cfg.Ranks() == 0 || cfg.BanksPerRank() == 0 {
		panic("dram: empty topology")
	}
	m := &Memory{cfg: cfg}
	m.banks = make([][]bank, cfg.Ranks())
	for r := range m.banks {
		bs := make([]bank, cfg.BanksPerRank())
		for i := range bs {
			bs[i].openRow = -1
		}
		m.banks[r] = bs
	}
	m.rankBus = make([]*slotBus, cfg.Ranks())
	for i := range m.rankBus {
		m.rankBus[i] = newSlotBus(cfg.Timing.TBL / 2)
	}
	m.chBus = make([]*slotBus, cfg.Channels)
	for i := range m.chBus {
		m.chBus[i] = newSlotBus(cfg.Timing.TBL / 2)
	}
	m.stats.RankReads = make([]uint64, cfg.Ranks())
	m.stats.RankBusyNs = make([]float64, cfg.Ranks())
	return m
}

// Config returns the topology.
func (m *Memory) Config() Config { return m.cfg }

// Reset returns the memory system to its initial state (all banks closed,
// buses idle, counters zeroed) without reallocating the bank and bus
// structures. Pooled replay states use it to reuse one Memory across
// simulator runs with the same topology.
func (m *Memory) Reset() {
	for r := range m.banks {
		bs := m.banks[r]
		for i := range bs {
			bs[i] = bank{openRow: -1}
		}
	}
	for _, b := range m.rankBus {
		b.reset()
	}
	for _, b := range m.chBus {
		b.reset()
	}
	rr, rb := m.stats.RankReads, m.stats.RankBusyNs
	for i := range rr {
		rr[i] = 0
	}
	for i := range rb {
		rb[i] = 0
	}
	m.stats = Stats{RankReads: rr, RankBusyNs: rb}
}

// ChannelOf maps a rank to its channel.
func (m *Memory) ChannelOf(rank int) int {
	return rank / (m.cfg.DIMMsPerChannel * m.cfg.RanksPerDIMM)
}

// access serializes one 64 B access through bank timing and the selected
// data bus, returning the completion time.
func (m *Memory) access(t float64, a Addr, viaNDP bool, isWrite bool) float64 {
	if a.Rank < 0 || a.Rank >= len(m.banks) || a.Bank < 0 || a.Bank >= len(m.banks[a.Rank]) {
		panic(fmt.Sprintf("dram: address out of range %+v", a))
	}
	tm := m.cfg.Timing
	b := &m.banks[a.Rank][a.Bank]
	start := t
	if b.nextCmd > start {
		start = b.nextCmd
	}
	// Refresh blackout: the last TRFC of every TREFI period is an all-bank
	// refresh window; commands falling inside slip past it and find their
	// row closed.
	if tm.TREFI > 0 {
		phase := start - float64(int64(start/tm.TREFI))*tm.TREFI
		if phase > tm.TREFI-tm.TRFC {
			start += tm.TREFI - phase
			b.openRow = -1
			m.stats.Refreshes++
		}
	}
	var dataReady float64
	if b.openRow == a.Row {
		m.stats.RowHits++
		dataReady = start + tm.TCL
		b.nextCmd = start + tm.TCCD
	} else {
		m.stats.RowMisses++
		m.stats.Activates++
		openPenalty := 0.0
		if b.openRow >= 0 {
			openPenalty = tm.TRP
		}
		dataReady = start + openPenalty + tm.TRCD + tm.TCL
		b.nextCmd = start + openPenalty + tm.TRCD + tm.TCCD
		b.openRow = a.Row
	}
	var bus *slotBus
	if viaNDP {
		bus = m.rankBus[a.Rank]
	} else {
		bus = m.chBus[m.ChannelOf(a.Rank)]
	}
	xferStart := bus.alloc(dataReady, 2)
	done := xferStart + tm.TBL
	if viaNDP {
		m.stats.NDPBytes += 64
		m.stats.RankBusyNs[a.Rank] += tm.TBL
	} else {
		m.stats.HostBytes += 64
	}
	if isWrite {
		m.stats.Writes++
	} else {
		m.stats.Reads++
		m.stats.RankReads[a.Rank]++
	}
	return done
}

// Read issues a 64 B read at time t. viaNDP selects the rank-internal data
// path (DIMM-side NDP unit) versus the host channel DQ bus.
func (m *Memory) Read(t float64, a Addr, viaNDP bool) float64 {
	return m.access(t, a, viaNDP, false)
}

// Write issues a 64 B write (offload instructions are encoded as DDR
// WRITEs, §5.2). Writes always travel over the host channel bus.
func (m *Memory) Write(t float64, a Addr) float64 {
	return m.access(t, a, false, true)
}

// BusTransfer occupies the channel DQ bus for one 64 B beat without
// touching a DRAM bank — e.g. a set-query WRITE carrying query data into an
// NDP unit's registers.
func (m *Memory) BusTransfer(t float64, channel int) float64 {
	start := m.chBus[channel].alloc(t, 2)
	m.stats.HostBytes += 64
	return start + m.cfg.Timing.TBL
}

// CommandTransfer occupies the channel DQ bus for a burst-chopped (BC8,
// 32 B) beat — the cost of the small NDP instructions: a set-search WRITE
// (a few 8 B task descriptors) or a poll READ returning the QSHR's 4 B
// result registers (§5.2, Fig. 5(e)).
func (m *Memory) CommandTransfer(t float64, channel int) float64 {
	start := m.chBus[channel].alloc(t, 1)
	m.stats.HostBytes += 32
	return start + m.cfg.Timing.TBL/2
}

// PollTransfer prices a burst-chopped poll READ issued at a (possibly
// future) scheduled time. With the backfilling slot allocator, future poll
// reservations no longer block present-time traffic, so polls hold real
// slots like any other command.
func (m *Memory) PollTransfer(t float64, channel int) float64 {
	return m.CommandTransfer(t, channel)
}

// Stats returns a copy of the accumulated counters.
func (m *Memory) Stats() Stats {
	s := m.stats
	s.RankReads = append([]uint64(nil), m.stats.RankReads...)
	s.RankBusyNs = append([]float64(nil), m.stats.RankBusyNs...)
	return s
}
