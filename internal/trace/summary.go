package trace

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// WorkerSummary is one worker's share of the derived metrics.
type WorkerSummary struct {
	Worker        int
	Tasks         int64
	Steals        int64
	StealAttempts int64
	Migrations    int64
	// WaitCount and WaitTime aggregate group waits entered by tasks on
	// this worker (time in Event.Time units).
	WaitCount int64
	WaitTime  int64
	// Parks and Wakes count the worker's park/wake cycles; ParkTime is the
	// total time spent blocked (paired EvPark→EvWake spans).
	Parks    int64
	Wakes    int64
	ParkTime int64
}

// Summary is the derived-metrics view of a trace: per-worker task counts,
// steal statistics with distance histogram, dominant-group hit rate, and
// wait-time breakdowns.
type Summary struct {
	PerWorker []WorkerSummary

	// Aggregates over all workers. Steals/StealAttempts/Migrations use the
	// same names and meaning as runtime.Stats and sim.RunResult.
	Tasks         int64
	Steals        int64
	StealAttempts int64
	StealFails    int64 // failed steal rounds (not failed probes)
	Migrations    int64
	WaitCount     int64
	WaitTime      int64
	// Parks/Wakes/ParkTime are the wakeup-path counters: how often workers
	// blocked on their parkers and for how long. An idle pool accumulates
	// park time but no new parks; a broadcast storm would show as a high
	// wake count with near-zero park times.
	Parks    int64
	Wakes    int64
	ParkTime int64

	// StealDistance[d] counts successful steals whose victim was d logical
	// entities away from the thief.
	StealDistance []int64
	// DominantHits counts successful steals whose victim lay inside the
	// recorded dominant-group steal range; DominantMisses the rest (all
	// WS-domain steals, which carry no range). Their ratio is the
	// dominant-group hit rate.
	DominantHits, DominantMisses int64

	// ShallowHelps counts tasks that began on a worker whose innermost open
	// wait is for deeper children (EvTaskBegin.Depth < EvWaitEnter.Depth on
	// the same worker): work of an enclosing group run nested under the
	// wait, whose continuation cannot resume until that whole subtree ends.
	// ShallowHelpTime is the time those tasks held their worker, outermost
	// spans only. The runtime's helping waits keep both at zero inside one
	// scheduling domain (DESIGN.md, "Depth-floored helping waits"). On the
	// simulator, whose waits suspend instead of nesting, a shallow help
	// delays the continuation by one task, not by a subtree, and the count
	// is a lower bound: its EvWaitEnter carries the waiting task's own
	// depth, one less than the children's, so helps at exactly that depth
	// are missed. Both are exact only when Drops is 0.
	ShallowHelps    int64
	ShallowHelpTime int64

	// Ties, Flattens, Unties, Unflattens count multi-level boundary
	// crossings.
	Ties, Flattens, Unties, Unflattens int64

	// Drops is the number of events lost to ring wraparound; when nonzero
	// the other counts undercount the run.
	Drops int64
}

// Summarize derives metrics from the tracer's surviving events.
func (t *Tracer) Summarize() Summary {
	s := Summarize(t.Events(), t.NumWorkers())
	s.Drops = t.Drops()
	return s
}

// Summarize derives metrics from events (merged and time-sorted, as
// returned by Tracer.Events) over `workers` workers.
func Summarize(events []Event, workers int) Summary {
	s := Summary{PerWorker: make([]WorkerSummary, workers)}
	for i := range s.PerWorker {
		s.PerWorker[i].Worker = i
	}
	// parkStart tracks the open park per worker.
	parkStart := make([]int64, workers)
	for i := range parkStart {
		parkStart[i] = -1
	}
	// Per worker: the open waits, innermost last (a task's groups are
	// sequential, so its ordinal identifies its open wait), and the open
	// shallow helps with the start of the outermost one.
	type openWait struct {
		task, start int64
		depth       int32
	}
	waits := make([][]openWait, workers)
	shallow := make([][]int64, workers)
	shallowStart := make([]int64, workers)
	for _, ev := range events {
		if int(ev.Worker) >= workers || ev.Worker < 0 {
			continue
		}
		w := &s.PerWorker[ev.Worker]
		switch ev.Type {
		case EvTaskBegin:
			w.Tasks++
			s.Tasks++
			if ws := waits[ev.Worker]; len(ws) > 0 && ws[len(ws)-1].depth > ev.Depth {
				s.ShallowHelps++
				if len(shallow[ev.Worker]) == 0 {
					shallowStart[ev.Worker] = ev.Time
				}
				shallow[ev.Worker] = append(shallow[ev.Worker], ev.Task)
			}
		case EvTaskEnd:
			// Task spans are counted at EvTaskBegin; the end only closes a
			// shallow help, and discards a wait of the task whose exit the
			// recorder lost — left open it would turn every later task
			// on the worker into a shallow help.
			if sh := shallow[ev.Worker]; len(sh) > 0 && sh[len(sh)-1] == ev.Task {
				shallow[ev.Worker] = sh[:len(sh)-1]
				if len(sh) == 1 {
					s.ShallowHelpTime += ev.Time - shallowStart[ev.Worker]
				}
			}
			waits[ev.Worker] = slices.DeleteFunc(waits[ev.Worker],
				func(ow openWait) bool { return ow.task == ev.Task })
		case EvStealAttempt:
			w.StealAttempts++
			s.StealAttempts++
		case EvStealSuccess:
			w.Steals++
			s.Steals++
			d := int(ev.Victim - ev.Self)
			if d < 0 {
				d = -d
			}
			for len(s.StealDistance) <= d {
				s.StealDistance = append(s.StealDistance, 0)
			}
			s.StealDistance[d]++
			if ev.RangeHi > ev.RangeLo &&
				float64(ev.Victim) >= ev.RangeLo && float64(ev.Victim) < ev.RangeHi {
				s.DominantHits++
			} else {
				s.DominantMisses++
			}
		case EvStealFail:
			s.StealFails++
		case EvMigration:
			w.Migrations++
			s.Migrations++
		case EvWaitEnter:
			waits[ev.Worker] = append(waits[ev.Worker], openWait{ev.Task, ev.Time, ev.Depth})
		case EvWaitExit:
			// Nested waits exit innermost first; suspended ones (the
			// simulator's) in any order.
			ws := waits[ev.Worker]
			for i := len(ws) - 1; i >= 0; i-- {
				if ws[i].task == ev.Task {
					w.WaitCount++
					w.WaitTime += ev.Time - ws[i].start
					s.WaitCount++
					s.WaitTime += ev.Time - ws[i].start
					waits[ev.Worker] = append(ws[:i], ws[i+1:]...)
					break
				}
			}
		case EvPark:
			w.Parks++
			s.Parks++
			parkStart[ev.Worker] = ev.Time
		case EvWake:
			w.Wakes++
			s.Wakes++
			if t0 := parkStart[ev.Worker]; t0 >= 0 {
				parkStart[ev.Worker] = -1
				w.ParkTime += ev.Time - t0
				s.ParkTime += ev.Time - t0
			}
		case EvBoundary:
			switch ev.Victim {
			case BoundaryTie:
				s.Ties++
			case BoundaryFlatten:
				s.Flattens++
			case BoundaryUntie:
				s.Unties++
			case BoundaryUnflatten:
				s.Unflattens++
			}
		}
	}
	return s
}

// Jobs returns the distinct nonzero job ordinals present in events, in
// ascending order.
func Jobs(events []Event) []int64 {
	seen := make(map[int64]bool)
	var out []int64
	for _, ev := range events {
		if ev.Job != 0 && !seen[ev.Job] {
			seen[ev.Job] = true
			out = append(out, ev.Job)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FilterJob returns the events attributable to one job: its task spans,
// waits, migrations, and the steal successes that moved its tasks. Steal
// attempts and failed steal rounds carry no job (a probe cannot know whose
// task it would have found) and are never included; slice them from the
// whole trace instead. Summarize over the slice therefore reports zero
// StealAttempts and StealFails, and its Tasks, Steals, Migrations and
// wait metrics sum to the whole-trace totals over all jobs when every
// task carried a job.
func FilterJob(events []Event, job int64) []Event {
	var out []Event
	for _, ev := range events {
		if ev.Job == job && ev.Job != 0 {
			out = append(out, ev)
		}
	}
	return out
}

// StealSuccessRate returns Steals/StealAttempts, or 0 with no attempts.
func (s Summary) StealSuccessRate() float64 {
	if s.StealAttempts == 0 {
		return 0
	}
	return float64(s.Steals) / float64(s.StealAttempts)
}

// DominantGroupHitRate returns the fraction of successful steals that
// stayed inside a dominant-group steal range (1.0 under pure ADWS
// stealing, 0.0 under conventional random stealing), or 0 with no steals.
func (s Summary) DominantGroupHitRate() float64 {
	if s.DominantHits+s.DominantMisses == 0 {
		return 0
	}
	return float64(s.DominantHits) / float64(s.DominantHits+s.DominantMisses)
}

// StealRatio formats successful/attempted steals the way every reporting
// surface of this repo prints them (Summary.String, sim.RunResult.String,
// cmd/adwsrun): "steals=<successes>/<attempts>".
func StealRatio(steals, attempts int64) string {
	return fmt.Sprintf("steals=%d/%d", steals, attempts)
}

// String renders a multi-line human-readable report.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: tasks=%d %s (%.1f%% success) migrations=%d drops=%d\n",
		s.Tasks, StealRatio(s.Steals, s.StealAttempts), 100*s.StealSuccessRate(), s.Migrations, s.Drops)
	fmt.Fprintf(&b, "  dominant-group hit rate: %.2f (%d/%d)\n",
		s.DominantGroupHitRate(), s.DominantHits, s.DominantHits+s.DominantMisses)
	fmt.Fprintf(&b, "  waits: count=%d time=%d\n", s.WaitCount, s.WaitTime)
	if s.ShallowHelps > 0 {
		fmt.Fprintf(&b, "  shallow helps under a deeper wait: count=%d time=%d\n",
			s.ShallowHelps, s.ShallowHelpTime)
	}
	if s.Parks+s.Wakes > 0 {
		fmt.Fprintf(&b, "  parking: parks=%d wakes=%d parked-time=%d\n",
			s.Parks, s.Wakes, s.ParkTime)
	}
	if len(s.StealDistance) > 0 {
		fmt.Fprintf(&b, "  steal distance:")
		for d, n := range s.StealDistance {
			if n > 0 {
				fmt.Fprintf(&b, " %d:%d", d, n)
			}
		}
		fmt.Fprintln(&b)
	}
	if s.Ties+s.Flattens+s.Unties+s.Unflattens > 0 {
		fmt.Fprintf(&b, "  boundaries: ties=%d flattens=%d unties=%d unflattens=%d\n",
			s.Ties, s.Flattens, s.Unties, s.Unflattens)
	}
	fmt.Fprintf(&b, "  per-worker tasks:")
	for _, w := range s.PerWorker {
		fmt.Fprintf(&b, " %d", w.Tasks)
	}
	fmt.Fprintln(&b)
	return b.String()
}
