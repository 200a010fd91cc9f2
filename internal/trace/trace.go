// Package trace defines the query execution traces that connect the
// functional phase (real index search with real early termination) to the
// timing phase (event-driven replay on the CPU/NDP resource models). See
// DESIGN.md, "Simulation methodology".
//
// A Query stores its comparison tasks in one flat backing array with
// per-hop offset metadata rather than a slice-of-slices: a trace with
// hundreds of hops costs two allocations instead of hundreds, and the
// timing replay walks tasks with perfect locality. Hop values handed out by
// Hop(i) are views over that storage.
package trace

import "ansmet/internal/engine"

// Task is one distance-comparison task: compare the query against vector ID
// with the threshold captured at offload time (exactly the semantics of the
// hardware set-search instruction, §5.2).
type Task struct {
	ID        uint32
	Threshold float64
	Result    engine.Result
}

// Hop is one dependent step of index traversal: the batch of comparison
// tasks issued together (e.g. the unvisited neighbors of the vertex popped
// from the search set). Hop h+1 cannot start before hop h's results return.
// Values returned by Query.Hop alias the query's flat task storage, so
// mutating Tasks elements updates the trace in place.
type Hop struct {
	// Level is the index layer (HNSW) or -1 for non-layered phases.
	Level int
	// Tasks are the comparisons issued in this hop.
	Tasks []Task
	// HostOps approximates the host-side bookkeeping work of the hop
	// (heap pushes/pops, visited-set updates), in abstract op units.
	HostOps int
}

// hopMeta locates one hop inside the flat task array.
type hopMeta struct {
	level   int32
	hostOps int32
	start   int32
	n       int32
}

// Query is the complete trace of one search.
type Query struct {
	hops  []hopMeta
	tasks []Task

	// openStart is the task offset of a BeginHop that has not been sealed
	// by EndHop yet (-1 when no hop is open).
	openStart int32
	openLevel int32
}

// BeginHop opens a hop that tasks are appended to with AddTask and that
// EndHop seals, without a temporary Task slice. Like AddTask and EndHop it
// tolerates a nil receiver, which records nothing.
func (q *Query) BeginHop(level int) {
	if q == nil {
		return
	}
	q.openStart = int32(len(q.tasks))
	q.openLevel = int32(level)
}

// AddTask appends a task — a comparison of vector id at threshold, with
// its result — to the hop opened by BeginHop.
func (q *Query) AddTask(id uint32, threshold float64, r engine.Result) {
	if q == nil {
		return
	}
	q.tasks = append(q.tasks, Task{ID: id, Threshold: threshold, Result: r})
}

// EndHop seals the hop opened by BeginHop with its host-side op count.
func (q *Query) EndHop(hostOps int) {
	if q == nil {
		return
	}
	q.hops = append(q.hops, hopMeta{
		level:   q.openLevel,
		hostOps: int32(hostOps),
		start:   q.openStart,
		n:       int32(len(q.tasks)) - q.openStart,
	})
	q.openStart = int32(len(q.tasks))
}

// NumHops returns the number of recorded hops.
func (q *Query) NumHops() int { return len(q.hops) }

// Hop returns the i-th hop as a view: Tasks aliases the flat storage (full
// slice expression, so an append by the caller cannot clobber later hops).
func (q *Query) Hop(i int) Hop {
	m := q.hops[i]
	end := m.start + m.n
	return Hop{
		Level:   int(m.level),
		HostOps: int(m.hostOps),
		Tasks:   q.tasks[m.start:end:end],
	}
}

// Tasks returns all comparison tasks across hops, in issue order.
func (q *Query) Tasks() []Task { return q.tasks }

// TotalTasks counts comparison tasks across all hops.
func (q *Query) TotalTasks() int { return len(q.tasks) }

// TotalLines counts all fetched 64 B lines (primary + backup).
func (q *Query) TotalLines() int {
	n := 0
	for i := range q.tasks {
		n += q.tasks[i].Result.TotalLines()
	}
	return n
}

// AcceptedTasks counts tasks whose vector passed the threshold.
func (q *Query) AcceptedTasks() int {
	n := 0
	for i := range q.tasks {
		if q.tasks[i].Result.Accepted {
			n++
		}
	}
	return n
}
