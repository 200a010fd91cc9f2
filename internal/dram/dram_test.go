package dram

import (
	"math"
	"testing"
)

func TestTopology(t *testing.T) {
	c := DefaultConfig()
	if c.Ranks() != 32 {
		t.Errorf("ranks = %d, want 32 (4ch x 2dimm x 4rank)", c.Ranks())
	}
	if c.BanksPerRank() != 32 {
		t.Errorf("banks per rank = %d, want 32", c.BanksPerRank())
	}
}

func TestChannelOf(t *testing.T) {
	m := New(DefaultConfig())
	if m.ChannelOf(0) != 0 || m.ChannelOf(7) != 0 || m.ChannelOf(8) != 1 || m.ChannelOf(31) != 3 {
		t.Error("rank-to-channel mapping wrong")
	}
}

func TestRowMissThenHit(t *testing.T) {
	m := New(DefaultConfig())
	tm := m.Config().Timing
	a := Addr{Rank: 0, Bank: 0, Row: 5}
	// Cold access: activate + CAS + burst.
	done1 := m.Read(0, a, true)
	want1 := tm.TRCD + tm.TCL + tm.TBL
	if math.Abs(done1-want1) > 1e-9 {
		t.Errorf("cold read done at %v, want %v", done1, want1)
	}
	// Row hit right after: limited by tCCD then CAS.
	done2 := m.Read(done1, a, true)
	if done2 <= done1 {
		t.Error("second read completes before first")
	}
	s := m.Stats()
	if s.RowHits != 1 || s.RowMisses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", s.RowHits, s.RowMisses)
	}
	// Conflict: different row on same bank pays precharge.
	b := Addr{Rank: 0, Bank: 0, Row: 9}
	done3 := m.Read(done2, b, true)
	if done3-done2 < tm.TRP+tm.TRCD {
		t.Errorf("row conflict too fast: %v", done3-done2)
	}
}

func TestStreamingIsBusLimited(t *testing.T) {
	// Back-to-back row hits on one rank approach one burst per tBL.
	m := New(DefaultConfig())
	tm := m.Config().Timing
	a := Addr{Rank: 3, Bank: 2, Row: 1}
	tdone := m.Read(0, a, true)
	const n = 100
	start := tdone
	for i := 0; i < n; i++ {
		tdone = m.Read(0, a, true) // issue immediately; reservations serialize
	}
	perLine := (tdone - start) / n
	if perLine < tm.TBL-1e-9 || perLine > tm.TBL*1.5 {
		t.Errorf("streaming per-line time %v, want ~tBL %v", perLine, tm.TBL)
	}
}

func TestBankParallelismWithinRank(t *testing.T) {
	// Two cold accesses to different banks overlap their activates; the
	// total is far less than 2x a serial pair.
	m := New(DefaultConfig())
	tm := m.Config().Timing
	d1 := m.Read(0, Addr{Rank: 0, Bank: 0, Row: 1}, true)
	d2 := m.Read(0, Addr{Rank: 0, Bank: 1, Row: 1}, true)
	serial := 2 * (tm.TRCD + tm.TCL + tm.TBL)
	if d2 >= serial {
		t.Errorf("bank-parallel pair took %v, serial would be %v", d2, serial)
	}
	if d2 < d1+tm.TBL-1e-9 {
		t.Error("data bus must serialize the two bursts")
	}
}

func TestRankParallelismNDP(t *testing.T) {
	// NDP accesses to different ranks do not share any bus: both finish at
	// the cold-access latency.
	m := New(DefaultConfig())
	tm := m.Config().Timing
	d1 := m.Read(0, Addr{Rank: 0, Bank: 0, Row: 1}, true)
	d2 := m.Read(0, Addr{Rank: 1, Bank: 0, Row: 1}, true)
	want := tm.TRCD + tm.TCL + tm.TBL
	if math.Abs(d1-want) > 1e-9 || math.Abs(d2-want) > 1e-9 {
		t.Errorf("independent ranks: %v, %v, want both %v", d1, d2, want)
	}
}

func TestHostSharesChannelBus(t *testing.T) {
	// Host accesses to two ranks on the SAME channel serialize on the DQ
	// bus; ranks on different channels do not.
	m := New(DefaultConfig())
	tm := m.Config().Timing
	d1 := m.Read(0, Addr{Rank: 0, Bank: 0, Row: 1}, false)
	d2 := m.Read(0, Addr{Rank: 1, Bank: 0, Row: 1}, false) // same channel
	if d2 < d1+tm.TBL-1e-9 {
		t.Error("same-channel host reads must serialize on the DQ bus")
	}
	m2 := New(DefaultConfig())
	e1 := m2.Read(0, Addr{Rank: 0, Bank: 0, Row: 1}, false)
	e2 := m2.Read(0, Addr{Rank: 8, Bank: 0, Row: 1}, false) // channel 1
	if math.Abs(e1-e2) > 1e-9 {
		t.Error("different-channel host reads should not interfere")
	}
}

func TestNDPDoesNotOccupyChannelBus(t *testing.T) {
	m := New(DefaultConfig())
	tm := m.Config().Timing
	// Saturate rank 0's internal bus with NDP reads.
	for i := 0; i < 50; i++ {
		m.Read(0, Addr{Rank: 0, Bank: 0, Row: 1}, true)
	}
	// A host read on the same channel (rank 1) is unaffected by NDP bus use.
	d := m.Read(0, Addr{Rank: 1, Bank: 0, Row: 2}, false)
	want := tm.TRCD + tm.TCL + tm.TBL
	if math.Abs(d-want) > 1e-9 {
		t.Errorf("host read delayed by NDP traffic: %v, want %v", d, want)
	}
}

func TestBusTransfer(t *testing.T) {
	m := New(DefaultConfig())
	tm := m.Config().Timing
	d1 := m.BusTransfer(0, 0)
	d2 := m.BusTransfer(0, 0)
	if math.Abs(d1-tm.TBL) > 1e-9 || math.Abs(d2-2*tm.TBL) > 1e-9 {
		t.Errorf("bus transfers at %v, %v", d1, d2)
	}
	if d := m.BusTransfer(0, 1); math.Abs(d-tm.TBL) > 1e-9 {
		t.Error("other channel should be free")
	}
}

func TestStatsCounters(t *testing.T) {
	m := New(DefaultConfig())
	m.Read(0, Addr{Rank: 2, Bank: 0, Row: 1}, true)
	m.Read(0, Addr{Rank: 2, Bank: 0, Row: 1}, true)
	m.Write(0, Addr{Rank: 2, Bank: 1, Row: 1})
	s := m.Stats()
	if s.Reads != 2 || s.Writes != 1 {
		t.Errorf("reads/writes = %d/%d", s.Reads, s.Writes)
	}
	if s.RankReads[2] != 2 {
		t.Errorf("rank 2 reads = %d", s.RankReads[2])
	}
	if s.NDPBytes != 128 || s.HostBytes != 64 {
		t.Errorf("NDP/host bytes = %d/%d", s.NDPBytes, s.HostBytes)
	}
	if s.Activates == 0 {
		t.Error("no activations counted")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range address did not panic")
		}
	}()
	m.Read(0, Addr{Rank: 99, Bank: 0, Row: 0}, true)
}

func TestRefreshBlackout(t *testing.T) {
	cfg := DefaultConfig()
	m := New(cfg)
	tm := cfg.Timing
	// A read issued inside the refresh window at the start of a tREFI
	// period must slip past tRFC, and the row buffer is closed.
	a := Addr{Rank: 0, Bank: 0, Row: 3}
	m.Read(tm.TREFI/2, a, true)     // warm the row outside a window
	issue := 2*tm.TREFI - tm.TRFC/2 // inside the refresh window
	done := m.Read(issue, a, true)
	if done < 2*tm.TREFI {
		t.Errorf("read inside refresh finished at %v, want >= %v", done, 2*tm.TREFI)
	}
	s := m.Stats()
	if s.Refreshes == 0 {
		t.Error("refresh delay not counted")
	}
	// The refresh closed the row: the post-refresh access was a miss.
	if s.RowMisses < 2 {
		t.Errorf("expected a row miss after refresh, stats %+v", s)
	}
}

func TestRefreshDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Timing.TREFI = 0
	m := New(cfg)
	m.Read(0, Addr{Rank: 0, Bank: 0, Row: 1}, true)
	if m.Stats().Refreshes != 0 {
		t.Error("refresh fired while disabled")
	}
}

func TestCommandAndPollTransfers(t *testing.T) {
	m := New(DefaultConfig())
	tm := m.Config().Timing
	// Commands are half bursts and share the channel bus with full bursts.
	c1 := m.CommandTransfer(0, 0)
	if math.Abs(c1-tm.TBL/2) > 1e-9 {
		t.Errorf("command transfer done at %v, want %v", c1, tm.TBL/2)
	}
	b := m.BusTransfer(0, 0) // must backfill-or-queue after the command
	if b < c1+tm.TBL-1e-9 {
		t.Errorf("full burst at %v overlaps command ending %v", b, c1)
	}
	p := m.PollTransfer(0, 0)
	if p <= 0 {
		t.Error("poll transfer has no duration")
	}
	s := m.Stats()
	if s.HostBytes != 64+32+32 {
		t.Errorf("host bytes %d, want 128", s.HostBytes)
	}
}
