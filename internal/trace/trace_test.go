package trace

import (
	"sync"
	"testing"
)

func TestRecordAndEvents(t *testing.T) {
	tr := New(2, 8)
	tr.Record(0, Event{Type: EvTaskBegin, Time: 10, Task: 1})
	tr.Record(1, Event{Type: EvTaskBegin, Time: 5, Task: 2})
	tr.Record(0, Event{Type: EvTaskEnd, Time: 20, Task: 1})
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	// Sorted by time; Worker filled in by Record.
	if evs[0].Time != 5 || evs[0].Worker != 1 {
		t.Errorf("first event = %+v, want time 5 on worker 1", evs[0])
	}
	if evs[2].Type != EvTaskEnd || evs[2].Worker != 0 {
		t.Errorf("last event = %+v, want task-end on worker 0", evs[2])
	}
}

// TestWraparound verifies the ring drops the oldest events and the drop
// counter grows monotonically.
func TestWraparound(t *testing.T) {
	const capacity = 8
	tr := New(1, capacity)
	for i := 0; i < 20; i++ {
		tr.Record(0, Event{Type: EvStealAttempt, Time: int64(i)})
	}
	if got, want := tr.Drops(), int64(20-capacity); got != want {
		t.Errorf("Drops() = %d, want %d", got, want)
	}
	evs := tr.Events()
	if len(evs) != capacity {
		t.Fatalf("got %d surviving events, want %d", len(evs), capacity)
	}
	// The survivors are the newest `capacity` events, oldest first.
	for i, ev := range evs {
		if want := int64(20 - capacity + i); ev.Time != want {
			t.Errorf("event %d has time %d, want %d", i, ev.Time, want)
		}
	}
	prev := tr.Drops()
	for i := 0; i < 5; i++ {
		tr.Record(0, Event{Type: EvStealAttempt, Time: int64(20 + i)})
		if d := tr.Drops(); d < prev {
			t.Fatalf("drop counter decreased: %d -> %d", prev, d)
		} else {
			prev = d
		}
	}
	if prev != 17 {
		t.Errorf("final drops = %d, want 17", prev)
	}
}

// TestConcurrentWriters fills every ring from its own goroutine (the
// single-writer-per-ring contract) and checks nothing is lost or torn.
// Run under -race (scripts/check.sh) to verify the lock-free hot path.
func TestConcurrentWriters(t *testing.T) {
	const workers, perWorker = 8, 10000
	const capacity = 1 << 14 // > perWorker: nothing dropped
	tr := New(workers, capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr.Record(w, Event{Type: EvTaskBegin, Time: int64(i), Task: int64(w)})
			}
		}(w)
	}
	wg.Wait()
	if d := tr.Drops(); d != 0 {
		t.Fatalf("Drops() = %d, want 0", d)
	}
	evs := tr.Events()
	if len(evs) != workers*perWorker {
		t.Fatalf("got %d events, want %d", len(evs), workers*perWorker)
	}
	counts := make([]int, workers)
	for _, ev := range evs {
		if int64(ev.Worker) != ev.Task {
			t.Fatalf("torn event: worker %d carries task %d", ev.Worker, ev.Task)
		}
		counts[ev.Worker]++
	}
	for w, n := range counts {
		if n != perWorker {
			t.Errorf("worker %d recorded %d events, want %d", w, n, perWorker)
		}
	}
}

func TestSummarize(t *testing.T) {
	tr := New(2, 64)
	// Worker 0: a task with a wait; worker 1 steals from it.
	tr.Record(0, Event{Type: EvTaskBegin, Time: 0, Task: 1, RangeLo: 0, RangeHi: 2})
	tr.Record(0, Event{Type: EvWaitEnter, Time: 10, Task: 1})
	tr.Record(1, Event{Type: EvStealAttempt, Time: 11, Self: 1, Victim: 0, RangeLo: 0, RangeHi: 2})
	tr.Record(1, Event{Type: EvStealSuccess, Time: 12, Self: 1, Victim: 0, Task: 2, RangeLo: 0, RangeHi: 2})
	tr.Record(1, Event{Type: EvTaskBegin, Time: 13, Task: 2})
	tr.Record(1, Event{Type: EvTaskEnd, Time: 20, Task: 2})
	tr.Record(0, Event{Type: EvWaitExit, Time: 21, Task: 1})
	tr.Record(0, Event{Type: EvTaskEnd, Time: 22, Task: 1})
	tr.Record(0, Event{Type: EvMigration, Time: 23, Self: 0, Victim: 1, Task: 3})
	tr.Record(1, Event{Type: EvStealAttempt, Time: 24, Self: 1, Victim: 0})
	tr.Record(1, Event{Type: EvStealFail, Time: 25, Self: 1})
	tr.Record(0, Event{Type: EvBoundary, Time: 26, Victim: BoundaryTie, Depth: 1, Task: 7})
	tr.Record(0, Event{Type: EvBoundary, Time: 27, Victim: BoundaryUntie, Depth: 1, Task: 7})
	// Worker 1 runs dry, parks, and is woken 15 units later; a dangling
	// park (no wake recorded yet) must not contribute park time.
	tr.Record(1, Event{Type: EvPark, Time: 30})
	tr.Record(1, Event{Type: EvWake, Time: 45})
	tr.Record(0, Event{Type: EvPark, Time: 50})

	s := tr.Summarize()
	if s.Tasks != 2 || s.Steals != 1 || s.StealAttempts != 2 || s.StealFails != 1 || s.Migrations != 1 {
		t.Errorf("counts = tasks %d steals %d attempts %d fails %d migrations %d",
			s.Tasks, s.Steals, s.StealAttempts, s.StealFails, s.Migrations)
	}
	if s.WaitCount != 1 || s.WaitTime != 11 {
		t.Errorf("waits = %d/%d, want 1/11", s.WaitCount, s.WaitTime)
	}
	if len(s.StealDistance) != 2 || s.StealDistance[1] != 1 {
		t.Errorf("steal distance histogram = %v, want one steal at distance 1", s.StealDistance)
	}
	if s.DominantHits != 1 || s.DominantMisses != 0 {
		t.Errorf("dominant hits/misses = %d/%d, want 1/0", s.DominantHits, s.DominantMisses)
	}
	if got := s.DominantGroupHitRate(); got != 1 {
		t.Errorf("DominantGroupHitRate = %v, want 1", got)
	}
	if got := s.StealSuccessRate(); got != 0.5 {
		t.Errorf("StealSuccessRate = %v, want 0.5", got)
	}
	if s.Ties != 1 || s.Unties != 1 || s.Flattens != 0 {
		t.Errorf("boundaries = ties %d unties %d flattens %d", s.Ties, s.Unties, s.Flattens)
	}
	if s.Parks != 2 || s.Wakes != 1 || s.ParkTime != 15 {
		t.Errorf("parking = parks %d wakes %d time %d, want 2/1/15", s.Parks, s.Wakes, s.ParkTime)
	}
	if s.PerWorker[1].Parks != 1 || s.PerWorker[1].Wakes != 1 || s.PerWorker[1].ParkTime != 15 {
		t.Errorf("per-worker parking wrong: %+v", s.PerWorker[1])
	}
	if s.PerWorker[0].Tasks != 1 || s.PerWorker[1].Tasks != 1 || s.PerWorker[1].Steals != 1 {
		t.Errorf("per-worker breakdown wrong: %+v", s.PerWorker)
	}
	if s.String() == "" {
		t.Error("String() is empty")
	}
}

func TestStealRatio(t *testing.T) {
	if got := StealRatio(3, 10); got != "steals=3/10" {
		t.Errorf("StealRatio = %q", got)
	}
}

// TestSummarizeShallowHelps: a task that begins under a wait for deeper
// children is a shallow help; its nested shallow helps count too, but only
// the outermost span is timed. Equal or deeper tasks, and tasks on another
// worker, are the wait's own work.
func TestSummarizeShallowHelps(t *testing.T) {
	evs := []Event{
		{Type: EvTaskBegin, Worker: 0, Task: 1, Depth: 0, Time: 0},
		{Type: EvWaitEnter, Worker: 0, Task: 1, Depth: 2, Time: 1},
		{Type: EvTaskBegin, Worker: 0, Task: 2, Depth: 2, Time: 2}, // the wait's own child
		{Type: EvTaskEnd, Worker: 0, Task: 2, Depth: 2, Time: 3},
		{Type: EvTaskBegin, Worker: 1, Task: 3, Depth: 0, Time: 3}, // another worker
		{Type: EvTaskEnd, Worker: 1, Task: 3, Depth: 0, Time: 4},
		{Type: EvTaskBegin, Worker: 0, Task: 4, Depth: 1, Time: 10}, // shallow
		{Type: EvWaitEnter, Worker: 0, Task: 4, Depth: 1, Time: 11},
		{Type: EvTaskBegin, Worker: 0, Task: 5, Depth: 0, Time: 12}, // shallow, nested
		{Type: EvTaskEnd, Worker: 0, Task: 5, Depth: 0, Time: 15},
		{Type: EvTaskBegin, Worker: 0, Task: 6, Depth: 1, Time: 16}, // at the inner floor
		{Type: EvTaskEnd, Worker: 0, Task: 6, Depth: 1, Time: 17},
		{Type: EvWaitExit, Worker: 0, Task: 4, Depth: 1, Time: 18},
		{Type: EvTaskEnd, Worker: 0, Task: 4, Depth: 1, Time: 30},
		{Type: EvWaitExit, Worker: 0, Task: 1, Depth: 2, Time: 31},
		{Type: EvTaskEnd, Worker: 0, Task: 1, Depth: 0, Time: 34},
	}
	s := Summarize(evs, 2)
	if s.ShallowHelps != 2 {
		t.Errorf("ShallowHelps = %d, want 2", s.ShallowHelps)
	}
	if s.ShallowHelpTime != 20 {
		t.Errorf("ShallowHelpTime = %d, want 20 (task 4's span)", s.ShallowHelpTime)
	}
	if s.WaitCount != 2 {
		t.Errorf("WaitCount = %d, want 2", s.WaitCount)
	}
}

// A wait whose exit the recorder lost closes at its task's end instead of
// staying the worker's innermost wait for the rest of the trace.
func TestSummarizeShallowHelpsLostWaitExit(t *testing.T) {
	evs := []Event{
		{Type: EvTaskBegin, Worker: 0, Task: 1, Depth: 3, Time: 0},
		{Type: EvWaitEnter, Worker: 0, Task: 1, Depth: 4, Time: 1},
		// EvWaitExit of task 1 dropped.
		{Type: EvTaskEnd, Worker: 0, Task: 1, Depth: 3, Time: 5},
		{Type: EvTaskBegin, Worker: 0, Task: 2, Depth: 1, Time: 6},
		{Type: EvTaskEnd, Worker: 0, Task: 2, Depth: 1, Time: 7},
	}
	if s := Summarize(evs, 1); s.ShallowHelps != 0 || s.WaitCount != 0 {
		t.Errorf("ShallowHelps = %d, WaitCount = %d, want 0, 0", s.ShallowHelps, s.WaitCount)
	}
}
