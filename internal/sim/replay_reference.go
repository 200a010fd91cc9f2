package sim

import (
	"math"
	"sort"

	"ansmet/internal/dram"
	"ansmet/internal/trace"
)

// This file preserves the original linear-scan replay verbatim as an
// executable specification. The production Run (replay.go) is an
// event-scheduled rewrite that must produce byte-identical reports; the
// golden tests (replay_golden_test.go) pin that equivalence by running both
// on the same traces and requiring reflect.DeepEqual on the reports.
//
// Nothing here is reachable from production code; keep it dumb and obvious.

// referenceRun replays the query traces with the original O(window) scan
// scheduler and per-hop map bookkeeping.
func referenceRun(cfg Config, traces []*trace.Query) *Report {
	if cfg.Part == nil {
		panic("sim: Config.Part is required")
	}
	if len(cfg.GroupLines) == 0 {
		cfg.GroupLines = []int{cfg.Part.LinesPerVector()}
	}
	if cfg.QueryLines <= 0 {
		cfg.QueryLines = 1
	}
	s := newRefState(cfg)
	window := cfg.maxInFlight()

	type qstate struct {
		qi       int
		hop      int
		post     bool // NDP: hop dispatched, host post-phase pending
		t, start float64
		hasQuery map[int]bool // NDP units holding this query's QSHR
	}
	s.rep.QueryLatencyNs = make([]float64, len(traces))
	var active []*qstate
	next := 0
	admit := func(at float64) {
		for len(active) < window && next < len(traces) {
			active = append(active, &qstate{qi: next, t: at, start: at, hasQuery: map[int]bool{}})
			next++
		}
	}
	admit(0)
	for len(active) > 0 {
		// Advance the query whose next hop starts earliest.
		best := 0
		for i := 1; i < len(active); i++ {
			if active[i].t < active[best].t {
				best = i
			}
		}
		qs := active[best]
		tr := traces[qs.qi]
		if qs.hop >= tr.NumHops() {
			s.rep.QueryLatencyNs[qs.qi] = qs.t - qs.start
			if qs.t > s.rep.MakespanNs {
				s.rep.MakespanNs = qs.t
			}
			active[best] = active[len(active)-1]
			active = active[:len(active)-1]
			admit(qs.t)
			continue
		}
		hop := tr.Hop(qs.hop)
		switch {
		case !cfg.UseNDP:
			qs.t = s.runCPUHop(qs.t, hop)
			qs.hop++
		case qs.post:
			qs.t = s.runHostPost(qs.t, hop)
			qs.post = false
			qs.hop++
		default:
			qs.t = s.runNDPDispatch(qs.t, hop, qs.hasQuery)
			qs.post = true
		}
	}
	s.rep.Mem = s.mem.Stats()
	return s.rep
}

type refState struct {
	cfg      Config
	mem      *dram.Memory
	coreFree []float64
	unitFree []float64
	rep      *Report
}

func newRefState(cfg Config) *refState {
	return &refState{
		cfg:      cfg,
		mem:      dram.New(cfg.Mem),
		coreFree: make([]float64, cfg.Host.Cores),
		unitFree: make([]float64, cfg.Mem.Ranks()),
		rep:      &Report{RankTaskLines: make([]uint64, cfg.Mem.Ranks())},
	}
}

// acquireCore returns the earliest-available core and its start time >= t.
func (s *refState) acquireCore(t float64) (idx int, start float64) {
	idx = 0
	for i := 1; i < len(s.coreFree); i++ {
		if s.coreFree[i] < s.coreFree[idx] {
			idx = i
		}
	}
	start = t
	if s.coreFree[idx] > start {
		start = s.coreFree[idx]
	}
	return idx, start
}

func (s *refState) releaseCore(idx int, from, to float64) {
	s.coreFree[idx] = to
	s.rep.CoreBusyNs += to - from
}

func (s *refState) chOf(rank int) int { return s.mem.ChannelOf(rank) }

func (s *refState) runCPUHop(at float64, hop trace.Hop) float64 {
	cfg := s.cfg
	part := cfg.Part
	core, t := s.acquireCore(at)
	hopStart := t
	hopEnd := t
	mlp := cfg.Host.MLP
	if mlp <= 0 {
		mlp = 10
	}
	var comp []float64
	issue := func(gate float64) float64 {
		if len(comp) >= mlp {
			if c := comp[len(comp)-mlp]; c > gate {
				return c
			}
		}
		return gate
	}
	type tstate struct {
		group     int
		line      int
		remaining int
		gate      float64
	}
	states := make([]tstate, len(hop.Tasks))
	for ti, task := range hop.Tasks {
		states[ti] = tstate{remaining: task.Result.Lines, gate: t}
		s.countLines(task)
	}
	for g := 0; g < len(cfg.GroupLines); g++ {
		for ti := range hop.Tasks {
			st := &states[ti]
			if st.remaining == 0 {
				continue
			}
			task := hop.Tasks[ti]
			group := part.GroupOf(task.ID)
			n := cfg.GroupLines[g]
			if n > st.remaining {
				n = st.remaining
			}
			groupEnd := st.gate
			for i := 0; i < n; i++ {
				seg, off := part.Locate(st.line)
				a := part.Addr(task.ID, group, seg, off)
				done := s.mem.Read(issue(st.gate), a, false)
				comp = append(comp, done)
				if done > groupEnd {
					groupEnd = done
				}
				s.rep.RankTaskLines[a.Rank]++
				st.line++
			}
			st.gate = groupEnd + cfg.Host.GroupCheckNs
			st.remaining -= n
		}
	}
	for ti := range hop.Tasks {
		st := &states[ti]
		task := hop.Tasks[ti]
		if task.Result.BackupLines > 0 {
			group := part.GroupOf(task.ID)
			bkEnd := st.gate
			for i := 0; i < task.Result.BackupLines; i++ {
				a := s.backupAddr(task.ID, group, i)
				done := s.mem.Read(issue(st.gate), a, false)
				comp = append(comp, done)
				if done > bkEnd {
					bkEnd = done
				}
				s.rep.RankTaskLines[a.Rank]++
			}
			st.gate = bkEnd
		}
		retire := st.gate + cfg.Host.TaskFixedNs
		if retire > hopEnd {
			hopEnd = retire
		}
	}
	s.rep.DistCompNs += hopEnd - hopStart
	hostDur := float64(hop.HostOps) * cfg.Host.OpNs
	end := hopEnd + hostDur
	s.rep.TraversalNs += hostDur
	s.releaseCore(core, hopStart, end)
	return end
}

// refSubtask is one (task, segment) unit of NDP work.
type refSubtask struct {
	taskIdx int
	seg     int
	lines   int
	backup  int
	id      uint32
	group   int
}

func (s *refState) runNDPDispatch(t float64, hop trace.Hop, hasQuery map[int]bool) float64 {
	cfg := s.cfg
	part := cfg.Part
	if len(hop.Tasks) == 0 {
		return t
	}

	byUnit := make(map[int][]refSubtask)
	unitTasks := make(map[int]int)
	taskDone := make([]float64, len(hop.Tasks))
	hopLoad := make(map[int]int)
	for ti, task := range hop.Tasks {
		group := part.GroupOf(task.ID)
		if part.IsReplicated(task.ID) {
			group = s.leastLoadedGroup(hopLoad)
		}
		hopLoad[group] += task.Result.Lines
		full := task.Result.Accepted || task.Result.Lines >= part.LinesPerVector()
		nfl := task.Result.LinesLocal
		if nfl < task.Result.Lines {
			nfl = task.Result.Lines
		}
		per := part.FetchedPerSegment(nfl, full)
		for seg, n := range per {
			if n == 0 && seg > 0 {
				continue
			}
			st := refSubtask{taskIdx: ti, seg: seg, lines: n, id: task.ID, group: group}
			if seg == 0 {
				st.backup = task.Result.BackupLines
			}
			u := part.RankFor(group, seg)
			byUnit[u] = append(byUnit[u], st)
			unitTasks[u]++
		}
		s.countLines(task)
	}

	units := make([]int, 0, len(byUnit))
	for u := range byUnit {
		units = append(units, u)
	}
	sort.Ints(units)
	qlines := (cfg.QueryLines + part.NumSegments() - 1) / part.NumSegments()
	core, offStart := s.acquireCore(t)
	s.rep.CoreWaitNs += offStart - t
	perCh := make(map[int]float64)
	offloadEnd := offStart
	writes := 0
	chTime := func(ch int) float64 {
		if tc, ok := perCh[ch]; ok {
			return tc
		}
		return offStart
	}
	for _, u := range units {
		ch := s.chOf(u)
		if key := -(ch + 1); !hasQuery[key] {
			hasQuery[key] = true
			tc := chTime(ch)
			for w := 0; w < qlines; w++ {
				tc = s.mem.BusTransfer(tc, ch)
			}
			perCh[ch] = tc
			writes += qlines
		}
		cmds := (unitTasks[u] + cfg.NDP.TasksPerSetSearch - 1) / cfg.NDP.TasksPerSetSearch
		tc := chTime(ch)
		for w := 0; w < cmds; w++ {
			tc = s.mem.CommandTransfer(tc, ch)
		}
		perCh[ch] = tc
		writes += cmds
		if tc > offloadEnd {
			offloadEnd = tc
		}
	}
	s.releaseCore(core, offStart, offStart+float64(writes)*cfg.Host.OpNs)
	s.rep.OffloadNs += offloadEnd - offStart

	maxDone := offloadEnd
	unitDone := make(map[int]float64)
	backlog := make(map[int]float64)
	for _, u := range units {
		if f := s.unitFree[u]; f > offloadEnd {
			backlog[u] = f - offloadEnd
		}
		ut := s.runUnitBatch(u, offloadEnd, byUnit[u], taskDone)
		s.rep.NDPBusyNs += ut - offloadEnd
		if ut > s.unitFree[u] {
			s.unitFree[u] = ut
		}
		unitDone[u] = ut
		if ut > maxDone {
			maxDone = ut
		}
	}
	s.rep.DistCompNs += maxDone - offloadEnd

	hopEnd := maxDone
	firstAccess := cfg.Mem.Timing.TRCD + cfg.Mem.Timing.TCL
	for _, u := range units {
		est := s.cfg.Est.Estimate(unitTasks[u],
			s.cfg.Mem.Timing.TBL/float64(part.NumSegments()),
			cfg.NDP.TaskFixedNs+cfg.NDP.ComputePerLineNs, backlog[u]+firstAccess)
		plan := cfg.Poll.Plan(offloadEnd, est)
		at, polls := plan.RetrieveAt(unitDone[u], 1<<20)
		s.rep.PollCount += uint64(polls)
		last := at
		charge := polls
		if charge > 128 {
			charge = 128
		}
		for i := polls - charge; i < polls; i++ {
			done := s.mem.PollTransfer(plan.At(i), s.chOf(u))
			if done > last {
				last = done
			}
		}
		if last > hopEnd {
			hopEnd = last
		}
	}
	s.rep.CollectNs += hopEnd - maxDone
	return hopEnd
}

func (s *refState) runHostPost(t float64, hop trace.Hop) float64 {
	cfg := s.cfg
	hostDur := float64(hop.HostOps) * cfg.Host.OpNs
	if n := cfg.Part.NumSegments(); n > 1 {
		hostDur += float64(len(hop.Tasks)*(n-1)) * cfg.Host.AggOpNs
	}
	core, hs := s.acquireCore(t)
	s.rep.CoreWaitNs += hs - t
	s.releaseCore(core, hs, hs+hostDur)
	s.rep.TraversalNs += hostDur
	return hs + hostDur
}

func (s *refState) runUnitBatch(u int, startAt float64, tasks []refSubtask, taskDone []float64) float64 {
	cfg := s.cfg
	part := cfg.Part
	end := startAt
	for _, st := range tasks {
		chainEnd := startAt
		for i := 0; i < st.lines; i++ {
			a := part.Addr(st.id, st.group, st.seg, i)
			if done := s.mem.Read(startAt, a, true); done > chainEnd {
				chainEnd = done
			}
			s.rep.RankTaskLines[a.Rank]++
		}
		if st.backup > 0 {
			bkStart := chainEnd
			for i := 0; i < st.backup; i++ {
				a := s.backupAddr(st.id, st.group, i)
				if done := s.mem.Read(bkStart, a, true); done > chainEnd {
					chainEnd = done
				}
				s.rep.RankTaskLines[a.Rank]++
			}
		}
		chainEnd += cfg.NDP.ComputePerLineNs + cfg.NDP.TaskFixedNs
		if chainEnd > taskDone[st.taskIdx] {
			taskDone[st.taskIdx] = chainEnd
		}
		if chainEnd > end {
			end = chainEnd
		}
	}
	return end
}

func (s *refState) leastLoadedGroup(hopLoad map[int]int) int {
	part := s.cfg.Part
	lineNs := s.cfg.Mem.Timing.TBL
	best, bestT := 0, math.Inf(1)
	for g := 0; g < part.Groups(); g++ {
		var worst float64
		for seg := 0; seg < part.NumSegments(); seg++ {
			if f := s.unitFree[part.RankFor(g, seg)]; f > worst {
				worst = f
			}
		}
		worst += float64(hopLoad[g]) * lineNs
		if worst < bestT {
			best, bestT = g, worst
		}
	}
	return best
}

func (s *refState) backupAddr(id uint32, group, line int) dram.Addr {
	a := s.cfg.Part.Addr(id, group, 0, 0)
	a.Row = backupRowOffset + a.Row + int64(line/(s.cfg.Mem.RowBytes/64))
	a.Bank = (a.Bank + 1) % s.cfg.Mem.BanksPerRank()
	return a
}

func (s *refState) countLines(task trace.Task) {
	n := uint64(task.Result.TotalLines())
	if task.Result.Accepted {
		s.rep.EffectualLines += n
	} else {
		s.rep.IneffectualLines += n
	}
}
