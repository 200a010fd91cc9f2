package trace

import (
	"slices"
	"testing"

	"ansmet/internal/engine"
)

// sample records two hops: one accepted task at level 2, then a rejected
// and an accepted task at level 0.
func sample() *Query {
	q := &Query{}
	q.BeginHop(2)
	q.AddTask(1, 10, engine.Result{Dist: 3, Accepted: true, Lines: 4, LinesLocal: 4})
	q.EndHop(4)
	q.BeginHop(0)
	q.AddTask(2, 5, engine.Result{Dist: 7, Lines: 1, LinesLocal: 2})
	q.AddTask(3, 5, engine.Result{Dist: 4, Accepted: true, Lines: 4, BackupLines: 2})
	q.EndHop(8)
	return q
}

func TestQueryCounters(t *testing.T) {
	q := sample()
	if got := q.TotalTasks(); got != 3 {
		t.Errorf("TotalTasks = %d, want 3", got)
	}
	if got := q.TotalLines(); got != 4+1+4+2 {
		t.Errorf("TotalLines = %d, want 11", got)
	}
	if got := q.AcceptedTasks(); got != 2 {
		t.Errorf("AcceptedTasks = %d, want 2", got)
	}
	if q.NumHops() != 2 {
		t.Fatalf("NumHops = %d, want 2", q.NumHops())
	}
	for i, want := range []Hop{
		{Level: 2, HostOps: 4, Tasks: []Task{{ID: 1, Threshold: 10, Result: engine.Result{Dist: 3, Accepted: true, Lines: 4, LinesLocal: 4}}}},
		{Level: 0, HostOps: 8, Tasks: []Task{
			{ID: 2, Threshold: 5, Result: engine.Result{Dist: 7, Lines: 1, LinesLocal: 2}},
			{ID: 3, Threshold: 5, Result: engine.Result{Dist: 4, Accepted: true, Lines: 4, BackupLines: 2}},
		}},
	} {
		got := q.Hop(i)
		if got.Level != want.Level || got.HostOps != want.HostOps || !slices.Equal(got.Tasks, want.Tasks) {
			t.Errorf("hop %d is %+v, want %+v", i, got, want)
		}
	}
}

// TestBuilderNilSafe: a nil *Query records nothing and does not panic, so a
// search can be handed one; a real one gets the hop, empty or not.
func TestBuilderNilSafe(t *testing.T) {
	var q *Query
	q.BeginHop(0)
	q.AddTask(0, 0, engine.Result{})
	q.EndHop(1)
	real := &Query{}
	real.BeginHop(-1)
	real.EndHop(3)
	if real.NumHops() != 1 || real.Hop(0).Level != -1 || real.Hop(0).HostOps != 3 || len(real.Hop(0).Tasks) != 0 {
		t.Errorf("an empty hop recorded as %d hops: %+v", real.NumHops(), real.Hop(0))
	}
}

func TestHopViewAliasesStorage(t *testing.T) {
	q := sample()
	h := q.Hop(1)
	h.Tasks[0].Result.LinesLocal = 99
	if q.Hop(1).Tasks[0].Result.LinesLocal != 99 {
		t.Error("Hop view does not alias the flat task storage")
	}
	// Appending to a hop view must not clobber the next hop's tasks.
	h0 := q.Hop(0)
	_ = append(h0.Tasks, Task{ID: 777})
	if q.Hop(1).Tasks[0].ID != 2 {
		t.Error("append through a hop view clobbered the following hop")
	}
}
