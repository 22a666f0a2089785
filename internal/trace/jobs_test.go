package trace

import (
	"reflect"
	"testing"
)

// jobEvents is a hand-built stream covering two jobs plus unattributable
// idle-probe events (Job 0).
func jobEvents() []Event {
	return []Event{
		{Type: EvTaskBegin, Worker: 0, Task: 1, Job: 2, Time: 1},
		{Type: EvTaskEnd, Worker: 0, Task: 1, Job: 2, Time: 2},
		{Type: EvStealAttempt, Worker: 1, Self: 1, Victim: 0, Time: 3},
		{Type: EvStealFail, Worker: 1, Self: 1, Time: 4},
		{Type: EvTaskBegin, Worker: 1, Task: 2, Job: 1, Time: 5},
		{Type: EvStealAttempt, Worker: 2, Self: 2, Victim: 1, Time: 6},
		{Type: EvStealSuccess, Worker: 2, Self: 2, Victim: 1, Task: 3, Job: 1, Time: 7},
		{Type: EvTaskBegin, Worker: 2, Task: 3, Job: 1, Time: 8},
		{Type: EvTaskEnd, Worker: 2, Task: 3, Job: 1, Time: 9},
		{Type: EvMigration, Worker: 1, Self: 1, Victim: 3, Task: 4, Job: 1, Time: 10},
		{Type: EvTaskEnd, Worker: 1, Task: 2, Job: 1, Time: 11},
		{Type: EvWaitEnter, Worker: 0, Task: 5, Job: 2, Time: 12},
		{Type: EvWaitExit, Worker: 0, Task: 5, Job: 2, Time: 14},
	}
}

func TestJobs(t *testing.T) {
	if got := Jobs(jobEvents()); !reflect.DeepEqual(got, []int64{1, 2}) {
		t.Errorf("Jobs = %v, want [1 2]", got)
	}
	if got := Jobs(nil); len(got) != 0 {
		t.Errorf("Jobs(nil) = %v, want empty", got)
	}
	// Job-less streams (e.g. traces recorded before any root ran) yield
	// no ids.
	if got := Jobs([]Event{{Type: EvStealFail}}); len(got) != 0 {
		t.Errorf("Jobs(unattributable) = %v, want empty", got)
	}
}

func TestFilterJob(t *testing.T) {
	evs := jobEvents()
	got := FilterJob(evs, 1)
	if len(got) != 6 {
		t.Fatalf("FilterJob(1) returned %d events, want 6", len(got))
	}
	for _, ev := range got {
		if ev.Job != 1 {
			t.Errorf("FilterJob(1) leaked event %+v", ev)
		}
	}
	// Job 0 is the unattributable bucket, never a real job: filtering on
	// it returns nothing rather than the idle probes.
	if got := FilterJob(evs, 0); len(got) != 0 {
		t.Errorf("FilterJob(0) = %v, want empty", got)
	}
}

func TestSummarizeJob(t *testing.T) {
	evs := jobEvents()
	s1 := Summarize(FilterJob(evs, 1), 3)
	if s1.Tasks != 2 || s1.Steals != 1 || s1.Migrations != 1 {
		t.Errorf("job 1: tasks=%d steals=%d migr=%d, want 2, 1, 1", s1.Tasks, s1.Steals, s1.Migrations)
	}
	s2 := Summarize(FilterJob(evs, 2), 3)
	if s2.Tasks != 1 || s2.Steals != 0 || s2.WaitCount != 1 {
		t.Errorf("job 2: tasks=%d steals=%d waits=%d, want 1, 0, 1", s2.Tasks, s2.Steals, s2.WaitCount)
	}
	// Steal attempts and failed rounds are unattributable by design, so a
	// job slice must never claim them.
	if s1.StealAttempts != 0 || s1.StealFails != 0 || s2.StealAttempts != 0 {
		t.Errorf("job slices claim attempts: job1=%+v job2=%+v", s1, s2)
	}
	// The attributable counters of the slices sum to the totals.
	total := Summarize(evs, 3)
	if s1.Tasks+s2.Tasks != total.Tasks || s1.Steals+s2.Steals != total.Steals ||
		s1.Migrations+s2.Migrations != total.Migrations ||
		s1.WaitCount+s2.WaitCount != total.WaitCount {
		t.Errorf("slices do not sum to totals: %+v + %+v != %+v", s1, s2, total)
	}
}
