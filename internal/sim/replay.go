package sim

import (
	"math"
	"sync"

	"ansmet/internal/dram"
	"ansmet/internal/trace"
)

// Run replays the query traces against the configured design and returns
// the timing report. Queries are admitted in order with a bounded in-flight
// window and advanced one hop at a time in global time order, so the
// reservation-based resources interleave concurrent queries realistically.
// The replay is deterministic.
//
// Scheduling is event-driven: active queries sit in a min-heap keyed
// (next-event time, query index), so picking the next event is O(log W) in
// the admission window instead of an O(W) scan. The tie-break on query
// index reproduces the original scan scheduler's selection order exactly —
// replay_golden_test.go pins byte-identical reports against referenceRun.
// Replay state (DRAM model, frontiers, per-hop scratch) is pooled so
// concurrent Run calls from the parallel experiment pipeline do not contend
// the allocator.
func Run(cfg Config, traces []*trace.Query) *Report {
	if cfg.Part == nil {
		panic("sim: Config.Part is required")
	}
	if len(cfg.GroupLines) == 0 {
		cfg.GroupLines = []int{cfg.Part.LinesPerVector()}
	}
	if cfg.QueryLines <= 0 {
		cfg.QueryLines = 1
	}
	s := getState(cfg)
	rep := &Report{
		RankTaskLines:  make([]uint64, cfg.Mem.Ranks()),
		QueryLatencyNs: make([]float64, len(traces)),
	}
	s.rep = rep
	s.replay(traces)
	rep.Mem = s.mem.Stats()
	putState(s)
	return rep
}

// qstate is one in-flight query's scheduler entry.
type qstate struct {
	qi    int32
	hop   int32
	post  bool // NDP: hop dispatched, host post-phase pending
	t     float64
	start float64
	// chInstalled marks channels whose NDP units already hold this query's
	// QSHR query vector. A set-query WRITE is seen by every DIMM buffer
	// chip on the shared channel bus, so one install serves all of the
	// channel's units (rank-level multicast); tracking is therefore per
	// channel, not per unit. One bit per channel replaces the old
	// map[int]bool.
	chInstalled []uint64
}

// replay drives the event loop. Invariants the event ordering relies on:
//
//   - Each active query has exactly one pending event (its next hop phase
//     at time t); the heap orders events by (t, qi), ascending.
//   - Query event times never move backward: every hop function returns an
//     end time >= its start time.
//   - Admission fills freed slots eagerly at the completing query's finish
//     time, in query order, so equal-time admissions pop in query order —
//     the same order the original scan scheduler produced.
func (s *state) replay(traces []*trace.Query) {
	cfg := s.cfg
	window := cfg.maxInFlight()
	if window > len(traces) {
		window = len(traces)
	}
	if cap(s.qArena) < window {
		s.qArena = make([]qstate, window)
	}
	s.qArena = s.qArena[:window]
	words := (cfg.Mem.Channels + 63) / 64
	s.qHeap = s.qHeap[:0]
	s.qFree = s.qFree[:0]
	for i := window - 1; i >= 0; i-- {
		s.qFree = append(s.qFree, int32(i))
	}
	next := 0
	admit := func(at float64) {
		for len(s.qFree) > 0 && next < len(traces) {
			slot := s.qFree[len(s.qFree)-1]
			s.qFree = s.qFree[:len(s.qFree)-1]
			q := &s.qArena[slot]
			q.qi, q.hop, q.post = int32(next), 0, false
			q.t, q.start = at, at
			if cap(q.chInstalled) < words {
				q.chInstalled = make([]uint64, words)
			} else {
				q.chInstalled = q.chInstalled[:words]
				for i := range q.chInstalled {
					q.chInstalled[i] = 0
				}
			}
			next++
			s.qPush(slot)
		}
	}
	admit(0)
	for len(s.qHeap) > 0 {
		slot := s.qPop()
		q := &s.qArena[slot]
		tr := traces[q.qi]
		if int(q.hop) >= tr.NumHops() {
			s.rep.QueryLatencyNs[q.qi] = q.t - q.start
			if q.t > s.rep.MakespanNs {
				s.rep.MakespanNs = q.t
			}
			s.qFree = append(s.qFree, slot)
			admit(q.t)
			continue
		}
		hop := tr.Hop(int(q.hop))
		switch {
		case !cfg.UseNDP:
			q.t = s.runCPUHop(q.t, hop)
			q.hop++
		case q.post:
			// Host-side result handling runs as its own scheduler event so
			// core acquisitions happen in global time order.
			q.t = s.runHostPost(q.t, hop)
			q.post = false
			q.hop++
		default:
			q.t = s.runNDPDispatch(q.t, hop, q.chInstalled)
			q.post = true
		}
		s.qPush(slot)
	}
}

// ---------------------------------------------------------------------------
// Scheduler heaps.
// ---------------------------------------------------------------------------

func (s *state) qLess(a, b int32) bool {
	qa, qb := &s.qArena[a], &s.qArena[b]
	return qa.t < qb.t || (qa.t == qb.t && qa.qi < qb.qi)
}

func (s *state) qPush(slot int32) {
	s.qHeap = append(s.qHeap, slot)
	i := len(s.qHeap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.qLess(s.qHeap[i], s.qHeap[p]) {
			break
		}
		s.qHeap[i], s.qHeap[p] = s.qHeap[p], s.qHeap[i]
		i = p
	}
}

func (s *state) qPop() int32 {
	h := s.qHeap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	s.qHeap = h[:n]
	h = s.qHeap
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s.qLess(h[r], h[l]) {
			m = r
		}
		if !s.qLess(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}

// ---------------------------------------------------------------------------
// Pooled replay state.
// ---------------------------------------------------------------------------

// tstate is the per-task progress cursor of one CPU hop.
type tstate struct {
	line      int
	remaining int
	gate      float64
}

// subtask is one (task, segment) unit of NDP work.
type subtask struct {
	taskIdx int
	seg     int
	lines   int
	backup  int // backup lines, charged to segment 0's unit
	id      uint32
	group   int
}

// state holds every mutable structure one replay needs. States are pooled:
// a Run call takes one from statePool, resets it for its Config, and
// returns it on exit, so back-to-back and concurrent replays reuse the
// DRAM model's bank/bus arrays and all scratch instead of reallocating.
type state struct {
	cfg Config
	mem *dram.Memory
	rep *Report

	// Core frontier: coreFree[i] is core i's busy-until time, organised as
	// an indexed min-heap keyed (coreFree[i], i) so acquisition is O(1) and
	// release O(log cores). The (time, index) order matches the original
	// linear scan's lowest-index-among-ties selection. Keys only ever
	// increase (releaseCore moves a core's frontier forward), so release
	// needs only a sift-down.
	coreFree []float64
	coreHeap []int32
	corePos  []int32

	// NDP unit frontiers, and the per-rank-group running max of them that
	// leastLoadedGroup consults (updated incrementally where unitFree is
	// raised — exact, since frontiers are monotone within a replay).
	unitFree   []float64
	groupWorst []float64

	// Scheduler storage (slot arena + event heap + free slots).
	qArena []qstate
	qHeap  []int32
	qFree  []int32

	// Per-hop scratch, reused across hops.
	comp      []float64   // CPU: completion times of issued reads (MLP window)
	tstates   []tstate    // CPU: per-task cursors
	unitSub   [][]subtask // NDP: subtasks per unit; empty slices mean untouched
	unitTasks []int
	unitDone  []float64
	backlog   []float64
	taskDone  []float64
	hopLoad   []int // tentative per-group lines this hop
	perCh     []float64
	chSet     []bool
	perSeg    []int
}

var statePool sync.Pool

func getState(cfg Config) *state {
	s, _ := statePool.Get().(*state)
	if s == nil {
		s = &state{}
	}
	s.reset(cfg)
	return s
}

func putState(s *state) {
	s.rep = nil
	statePool.Put(s)
}

func resizeF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func resizeInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// reset prepares a (possibly recycled) state for one replay under cfg.
func (s *state) reset(cfg Config) {
	s.cfg = cfg
	if s.mem != nil && s.mem.Config() == cfg.Mem {
		s.mem.Reset()
	} else {
		s.mem = dram.New(cfg.Mem)
	}
	cores := cfg.Host.Cores
	s.coreFree = resizeF64(s.coreFree, cores)
	if cap(s.coreHeap) < cores {
		s.coreHeap = make([]int32, cores)
		s.corePos = make([]int32, cores)
	}
	s.coreHeap = s.coreHeap[:cores]
	s.corePos = s.corePos[:cores]
	for i := 0; i < cores; i++ {
		// All keys are 0; the identity arrangement is a valid (time, index)
		// min-heap.
		s.coreHeap[i] = int32(i)
		s.corePos[i] = int32(i)
	}
	ranks := cfg.Mem.Ranks()
	s.unitFree = resizeF64(s.unitFree, ranks)
	s.groupWorst = resizeF64(s.groupWorst, cfg.Part.Groups())
	if cap(s.unitSub) < ranks {
		old := s.unitSub
		s.unitSub = make([][]subtask, ranks)
		copy(s.unitSub, old)
	}
	s.unitSub = s.unitSub[:ranks]
	for i := range s.unitSub {
		s.unitSub[i] = s.unitSub[i][:0]
	}
	s.unitTasks = resizeInt(s.unitTasks, ranks)
	s.unitDone = resizeF64(s.unitDone, ranks)
	s.backlog = resizeF64(s.backlog, ranks)
	s.hopLoad = resizeInt(s.hopLoad, cfg.Part.Groups())
	s.perCh = resizeF64(s.perCh, cfg.Mem.Channels)
	if cap(s.chSet) < cfg.Mem.Channels {
		s.chSet = make([]bool, cfg.Mem.Channels)
	}
	s.chSet = s.chSet[:cfg.Mem.Channels]
	s.comp = s.comp[:0]
	s.tstates = s.tstates[:0]
	s.taskDone = s.taskDone[:0]
	s.perSeg = s.perSeg[:0]
}

// acquireCore returns the earliest-available core and its start time >= t.
// The caller must pair it with releaseCore before the next acquireCore —
// the heap key stays stale in between (the replay is single-threaded and
// every hop function acquires and releases within its own extent).
func (s *state) acquireCore(t float64) (idx int, start float64) {
	idx = int(s.coreHeap[0])
	start = t
	if f := s.coreFree[idx]; f > start {
		start = f
	}
	return idx, start
}

func (s *state) releaseCore(idx int, from, to float64) {
	s.coreFree[idx] = to
	s.coreSiftDown(int(s.corePos[idx]))
	s.rep.CoreBusyNs += to - from
}

func (s *state) coreLess(a, b int32) bool {
	fa, fb := s.coreFree[a], s.coreFree[b]
	return fa < fb || (fa == fb && a < b)
}

func (s *state) coreSiftDown(i int) {
	h := s.coreHeap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s.coreLess(h[r], h[l]) {
			m = r
		}
		if !s.coreLess(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		s.corePos[h[i]] = int32(i)
		s.corePos[h[m]] = int32(m)
		i = m
	}
}

// chOf returns the channel of a rank.
func (s *state) chOf(rank int) int { return s.mem.ChannelOf(rank) }

// ---------------------------------------------------------------------------
// CPU designs: the query owns one core; every vector line is fetched over
// the channel DQ bus. Fetches within one schedule group are pipelined;
// groups serialize at the ET decision points.
// ---------------------------------------------------------------------------

// runCPUHop models an out-of-order core with software prefetching (as in
// FAISS): candidate addresses of a whole hop are known up front, so the
// first fetch group of every task is issued as one stream at hop start and
// the channel buses pace them. Later groups of a task are the early-
// termination decision points — each is gated on the completion and check
// of the task's previous group, which is exactly the serialization penalty
// ET pays on a CPU (the paper calls its CPU-ET numbers "optimistic" for
// assuming dedicated bound-check logic; the per-group check cost models
// that logic).
func (s *state) runCPUHop(at float64, hop trace.Hop) float64 {
	cfg := s.cfg
	part := cfg.Part
	core, t := s.acquireCore(at)
	hopStart := t
	hopEnd := t
	// comp tracks the completion times of the hop's issued reads; a read
	// may only issue once fewer than MLP earlier reads are outstanding.
	mlp := cfg.Host.MLP
	if mlp <= 0 {
		mlp = 10
	}
	comp := s.comp[:0]
	issue := func(gate float64) float64 {
		if len(comp) >= mlp {
			if c := comp[len(comp)-mlp]; c > gate {
				return c
			}
		}
		return gate
	}
	// Tasks advance group-major: group 0 of every task streams first (its
	// addresses are known up front), then each task's group g gates on its
	// own group g-1 check. This keeps the MLP window in issue-time order —
	// iterating task-major would falsely gate task k's first fetches on
	// task k-1's last ones.
	states := s.tstates[:0]
	for _, task := range hop.Tasks {
		states = append(states, tstate{remaining: task.Result.Lines, gate: t})
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
		// Backup re-check lines (full-precision copy) issue after the
		// in-bound decision.
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
	s.comp = comp
	s.tstates = states
	s.rep.DistCompNs += hopEnd - hopStart
	hostDur := float64(hop.HostOps) * cfg.Host.OpNs
	end := hopEnd + hostDur
	s.rep.TraversalNs += hostDur
	s.releaseCore(core, hopStart, end)
	return end
}

// ---------------------------------------------------------------------------
// NDP designs: the host traverses the index, offloads comparison batches to
// the DIMM-side units via DDR WRITEs, and polls for results; the units
// fetch over their rank-internal buses and early-terminate locally.
// ---------------------------------------------------------------------------

// runNDPDispatch executes the offload, NDP processing and polling of one
// hop, returning the time the results are in host hands; the host-side
// bookkeeping runs separately via runHostPost. Units are visited in
// ascending rank order wherever order matters (the same order the old
// map+sort bookkeeping produced).
func (s *state) runNDPDispatch(t float64, hop trace.Hop, chInstalled []uint64) float64 {
	cfg := s.cfg
	part := cfg.Part
	if len(hop.Tasks) == 0 {
		return t
	}

	// Assign each task to a rank group; replicated vectors go to the
	// least-loaded group (the §5.3 load-balancing trick).
	taskDone := s.taskDone[:0]
	for range hop.Tasks {
		taskDone = append(taskDone, 0)
	}
	s.taskDone = taskDone
	for i := range s.hopLoad {
		s.hopLoad[i] = 0
	}
	for ti, task := range hop.Tasks {
		group := part.GroupOf(task.ID)
		if part.IsReplicated(task.ID) {
			group = s.leastLoadedGroup()
		}
		s.hopLoad[group] += task.Result.Lines
		full := task.Result.Accepted || task.Result.Lines >= part.LinesPerVector()
		nfl := task.Result.LinesLocal
		if nfl < task.Result.Lines {
			nfl = task.Result.Lines
		}
		s.perSeg = part.AppendFetchedPerSegment(s.perSeg[:0], nfl, full)
		for seg, n := range s.perSeg {
			if n == 0 && seg > 0 {
				continue
			}
			st := subtask{taskIdx: ti, seg: seg, lines: n, id: task.ID, group: group}
			if seg == 0 {
				st.backup = task.Result.BackupLines
			}
			u := part.RankFor(group, seg)
			s.unitSub[u] = append(s.unitSub[u], st)
			s.unitTasks[u]++
		}
		s.countLines(task)
	}

	// Offload: the host issues set-query (once per channel per query) and
	// set-search WRITEs over the channel buses.
	// Each unit holds one segment of the vectors, so it only needs the
	// matching slice of the query (§5.3: long vectors are partitioned, and
	// the QSHR query field holds one sub-vector).
	// A set-query WRITE on a channel is seen by every DIMM buffer chip on
	// that shared bus, so one install serves all the channel's units
	// (rank-level multicast, as in TensorDIMM-style NDP designs).
	qlines := (cfg.QueryLines + part.NumSegments() - 1) / part.NumSegments()
	core, offStart := s.acquireCore(t)
	s.rep.CoreWaitNs += offStart - t
	// The host core only enqueues the instruction WRITEs to the memory
	// controller (OpNs per write); the controller drains them while the
	// core moves on. Only the per-channel DQ buses serialize the transfers,
	// and channels proceed in parallel.
	for i := range s.chSet {
		s.chSet[i] = false
	}
	chTime := func(ch int) float64 {
		if s.chSet[ch] {
			return s.perCh[ch]
		}
		return offStart
	}
	offloadEnd := offStart
	writes := 0
	ranks := len(s.unitSub)
	for u := 0; u < ranks; u++ {
		if len(s.unitSub[u]) == 0 {
			continue
		}
		ch := s.chOf(u)
		if chInstalled[ch>>6]&(1<<(uint(ch)&63)) == 0 {
			chInstalled[ch>>6] |= 1 << (uint(ch) & 63)
			tc := chTime(ch)
			for w := 0; w < qlines; w++ {
				tc = s.mem.BusTransfer(tc, ch)
			}
			s.perCh[ch], s.chSet[ch] = tc, true
			writes += qlines
		}
		cmds := (s.unitTasks[u] + cfg.NDP.TasksPerSetSearch - 1) / cfg.NDP.TasksPerSetSearch
		tc := chTime(ch)
		for w := 0; w < cmds; w++ {
			tc = s.mem.CommandTransfer(tc, ch)
		}
		s.perCh[ch], s.chSet[ch] = tc, true
		writes += cmds
		if tc > offloadEnd {
			offloadEnd = tc
		}
	}
	s.releaseCore(core, offStart, offStart+float64(writes)*cfg.Host.OpNs)
	s.rep.OffloadNs += offloadEnd - offStart

	// Units process their subtasks with QSHR-level parallelism: batches
	// from different queries overlap on a unit (§5.2: "different QSHRs can
	// issue memory accesses in parallel"), with the rank's banks and
	// internal-bus reservations serializing the real conflicts. unitFree
	// tracks each unit's work horizon as the load signal for replica
	// selection.
	maxDone := offloadEnd
	numSegs := part.NumSegments()
	for u := 0; u < ranks; u++ {
		if len(s.unitSub[u]) == 0 {
			continue
		}
		if f := s.unitFree[u]; f > offloadEnd {
			// The host's estimate of this unit's outstanding work (its own
			// previously offloaded batches) — feeds adaptive polling.
			s.backlog[u] = f - offloadEnd
		} else {
			s.backlog[u] = 0
		}
		ut := s.runUnitBatch(u, offloadEnd, s.unitSub[u], taskDone)
		s.rep.NDPBusyNs += ut - offloadEnd
		if ut > s.unitFree[u] {
			s.unitFree[u] = ut
			if g := u / numSegs; g < len(s.groupWorst) && ut > s.groupWorst[g] {
				s.groupWorst[g] = ut
			}
		}
		s.unitDone[u] = ut
		if ut > maxDone {
			maxDone = ut
		}
	}
	s.rep.DistCompNs += maxDone - offloadEnd

	// Poll each unit for results.
	hopEnd := maxDone
	firstAccess := cfg.Mem.Timing.TRCD + cfg.Mem.Timing.TCL
	for u := 0; u < ranks; u++ {
		if len(s.unitSub[u]) == 0 {
			continue
		}
		// The line distribution describes sequential (whole-vector) fetches;
		// each unit serves one of NumSegments dimension slices of a task.
		est := s.cfg.Est.Estimate(s.unitTasks[u],
			s.perLineNs()/float64(numSegs),
			cfg.NDP.TaskFixedNs+cfg.NDP.ComputePerLineNs, s.backlog[u]+firstAccess)
		plan := cfg.Poll.Plan(offloadEnd, est)
		at, polls := plan.RetrieveAt(s.unitDone[u], 1<<20)
		s.rep.PollCount += uint64(polls)
		last := at
		// Charge bus occupancy for the polls nearest completion (a
		// bounded number keeps deep-backlog replays tractable; earlier
		// polls of a busy unit are counted but not individually timed).
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

	// Return the per-unit scratch to its empty state for the next hop.
	for u := 0; u < ranks; u++ {
		if len(s.unitSub[u]) > 0 {
			s.unitSub[u] = s.unitSub[u][:0]
			s.unitTasks[u] = 0
			s.unitDone[u] = 0
			s.backlog[u] = 0
		}
	}
	return hopEnd
}

// runHostPost is the host-side result handling of one NDP hop: traversal
// ops plus partial-distance aggregation when vectors are segmented.
func (s *state) runHostPost(t float64, hop trace.Hop) float64 {
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

// runUnitBatch services the subtasks offloaded to one unit. Fetches within
// a task stream at bus pace (QSHRs keep the rank's banks and internal bus
// saturated; the distance check pipelines behind the fetches, and early
// termination cuts the stream at the functional line count). Backup
// re-check reads issue only after the primary stream finishes — they
// depend on the in-bound decision. The rank's bank and bus reservations
// serialize concurrent chains, so unit throughput is bandwidth-limited.
func (s *state) runUnitBatch(u int, startAt float64, tasks []subtask, taskDone []float64) float64 {
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

// perLineNs is the nominal per-line NDP service rate used by the polling
// estimators: fetch chains stream at bus pace.
func (s *state) perLineNs() float64 {
	return s.cfg.Mem.Timing.TBL
}

// leastLoadedGroup picks the rank group whose units are free earliest,
// also counting the lines already assigned to each group within the
// current hop (so a batch of replicated tasks spreads instead of piling
// onto one group). groupWorst is the incrementally maintained max of each
// group's unit frontiers.
func (s *state) leastLoadedGroup() int {
	lineNs := s.cfg.Mem.Timing.TBL
	best, bestT := 0, math.Inf(1)
	for g := range s.groupWorst {
		worst := s.groupWorst[g] + float64(s.hopLoad[g])*lineNs
		if worst < bestT {
			best, bestT = g, worst
		}
	}
	return best
}

// backupAddr places the full-precision backup copy in the vector's home
// rank at rows displaced by backupRowOffset.
func (s *state) backupAddr(id uint32, group, line int) dram.Addr {
	a := s.cfg.Part.Addr(id, group, 0, 0)
	a.Row = backupRowOffset + a.Row + int64(line/(s.cfg.Mem.RowBytes/64))
	a.Bank = (a.Bank + 1) % s.cfg.Mem.BanksPerRank()
	return a
}

// countLines attributes a task's fetched lines to the effectual or
// ineffectual pool (Fig. 10).
func (s *state) countLines(task trace.Task) {
	n := uint64(task.Result.TotalLines())
	if task.Result.Accepted {
		s.rep.EffectualLines += n
	} else {
		s.rep.IneffectualLines += n
	}
}
