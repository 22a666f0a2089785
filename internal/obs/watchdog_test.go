package obs

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/parlab/adws/internal/trace"
)

// fakeSignals is a controllable signal source for deterministic
// watchdog tests (samples are driven directly via sample(now), no
// goroutine, no real clock).
type fakeSignals struct {
	snap    SchedSnapshot
	queued  int
	age     int64
	expired int64
	burn    float64
}

func (f *fakeSignals) signals() Signals {
	return Signals{
		Sched:            func() SchedSnapshot { return f.snap },
		QueuedJobs:       func() int { return f.queued },
		OldestQueueAgeNS: func() int64 { return f.age },
		DeadlineExpired:  func() int64 { return f.expired },
		SLOBurn:          func() float64 { return f.burn },
	}
}

func workers(n int) []WorkerState {
	out := make([]WorkerState, n)
	for i := range out {
		out[i].Worker = i
	}
	return out
}

// TestWatchdogStall drives the injected-stall scenario end to end: one
// worker's task counter goes flat with jobs queued, the watchdog fires
// exactly once with that worker's id, the stall verdict degrades Status
// (the /healthz 503 signal), clears when the queue empties, and re-arms
// for a second stall.
func TestWatchdogStall(t *testing.T) {
	f := &fakeSignals{snap: SchedSnapshot{Workers: workers(3)}, queued: 1}
	var dumps []*Dump
	rec := NewRecorder(Config{Workers: 3})
	rec.Record(1, trace.Event{Type: trace.EvTaskBegin, Time: 123, Worker: 1})
	wd := NewWatchdog(rec, f.signals(), WatchdogConfig{
		StallAfter: 100 * time.Millisecond,
		OnTrigger:  func(d *Dump) { dumps = append(dumps, d) },
	})

	t0 := time.Unix(1000, 0)
	// Workers 0 and 2 make progress; worker 1 is wedged on one task.
	f.snap.Workers[0].Tasks, f.snap.Workers[2].Tasks = 1, 1
	wd.sample(t0) // baseline init, no verdicts possible
	if wd.TriggerTotal() != 0 {
		t.Fatal("trigger on baseline sample")
	}

	f.snap.Workers[0].Tasks, f.snap.Workers[2].Tasks = 2, 2
	wd.sample(t0.Add(50 * time.Millisecond)) // under threshold
	if wd.StallActive() {
		t.Fatal("stall verdict before StallAfter elapsed")
	}

	f.snap.Workers[0].Tasks, f.snap.Workers[2].Tasks = 3, 3
	wd.sample(t0.Add(150 * time.Millisecond)) // worker 1 flat for 150ms
	if !wd.StallActive() {
		t.Fatal("no stall verdict after StallAfter elapsed with jobs queued")
	}
	if got := wd.Triggers()[ReasonWorkerStall]; got != 1 {
		t.Fatalf("stall triggers = %d, want 1", got)
	}
	st := wd.Status()
	if st.OK || !st.StallActive || st.LastReason != ReasonWorkerStall || st.LastWorker != 1 {
		t.Fatalf("status = %+v, want !OK stall on worker 1", st)
	}
	if len(dumps) != 1 || dumps[0] == nil {
		t.Fatalf("OnTrigger saw %d dumps", len(dumps))
	}
	if dumps[0].Worker != 1 || dumps[0].Reason != ReasonWorkerStall {
		t.Fatalf("dump = worker %d reason %q", dumps[0].Worker, dumps[0].Reason)
	}
	if len(dumps[0].Events) != 1 || dumps[0].Events[0].Time != 123 {
		t.Fatalf("dump missing the stall window events: %v", dumps[0].Events)
	}
	if dumps[0].Sched == nil {
		t.Fatal("dump has no scheduler snapshot")
	}

	// Edge-triggered: the persisting stall does not fire again.
	f.snap.Workers[0].Tasks, f.snap.Workers[2].Tasks = 4, 4
	wd.sample(t0.Add(300 * time.Millisecond))
	if got := wd.Triggers()[ReasonWorkerStall]; got != 1 {
		t.Fatalf("persisting stall re-fired: triggers = %d", got)
	}

	// Queue empties: the verdict clears even though the worker is still
	// busy — nothing is starved.
	f.queued = 0
	f.snap.Workers[0].Tasks, f.snap.Workers[2].Tasks = 5, 5
	wd.sample(t0.Add(400 * time.Millisecond))
	if wd.StallActive() || !wd.Status().OK {
		t.Fatal("stall verdict did not clear with an empty queue")
	}

	// Re-arm: progress, then a second stall fires a second trigger.
	f.queued = 1
	f.snap.Workers[0].Tasks, f.snap.Workers[2].Tasks = 6, 6
	f.snap.Workers[1].Tasks = 9
	wd.sample(t0.Add(500 * time.Millisecond))
	f.snap.Workers[0].Tasks, f.snap.Workers[2].Tasks = 7, 7
	wd.sample(t0.Add(700 * time.Millisecond))
	if got := wd.Triggers()[ReasonWorkerStall]; got != 2 {
		t.Fatalf("second stall triggers = %d, want 2", got)
	}
}

// TestWatchdogParkedNeverStalls pins that a parked worker is progress by
// definition: idle workers must not page anyone.
func TestWatchdogParkedNeverStalls(t *testing.T) {
	f := &fakeSignals{snap: SchedSnapshot{Workers: workers(1)}, queued: 1}
	f.snap.Workers[0].Parked = true
	wd := NewWatchdog(nil, f.signals(), WatchdogConfig{StallAfter: 10 * time.Millisecond})
	t0 := time.Unix(1000, 0)
	wd.sample(t0)
	wd.sample(t0.Add(time.Hour))
	if wd.TriggerTotal() != 0 || wd.StallActive() {
		t.Fatal("parked worker produced a stall verdict")
	}
}

// TestWatchdogDeadlineBurst pins the sliding-window burst detector and
// its edge re-arm.
func TestWatchdogDeadlineBurst(t *testing.T) {
	f := &fakeSignals{}
	wd := NewWatchdog(nil, Signals{DeadlineExpired: func() int64 { return f.expired }},
		WatchdogConfig{})
	t0 := time.Unix(1000, 0)
	wd.sample(t0)
	f.expired = deadlineBurst - 1
	wd.sample(t0.Add(burstWindow / 5)) // one short of a burst in the window
	if wd.Triggers()[ReasonDeadlineBurst] != 0 {
		t.Fatal("burst fired under threshold")
	}
	f.expired = deadlineBurst + 1
	wd.sample(t0.Add(2 * burstWindow / 5)) // a burst in the window
	if got := wd.Triggers()[ReasonDeadlineBurst]; got != 1 {
		t.Fatalf("burst triggers = %d, want 1", got)
	}
	f.expired = deadlineBurst + 2
	wd.sample(t0.Add(3 * burstWindow / 5)) // still bursting: no re-fire
	if got := wd.Triggers()[ReasonDeadlineBurst]; got != 1 {
		t.Fatalf("burst re-fired while active: %d", got)
	}
	wd.sample(t0.Add(3 * burstWindow)) // window slides past, re-arms
	f.expired = 2*deadlineBurst + 2
	wd.sample(t0.Add(3*burstWindow + burstWindow/10))
	if got := wd.Triggers()[ReasonDeadlineBurst]; got != 2 {
		t.Fatalf("second burst triggers = %d, want 2", got)
	}
}

// TestWatchdogBurn pins the burn-rate threshold's edge triggering.
func TestWatchdogBurn(t *testing.T) {
	f := &fakeSignals{}
	wd := NewWatchdog(nil, Signals{SLOBurn: func() float64 { return f.burn }},
		WatchdogConfig{})
	t0 := time.Unix(1000, 0)
	f.burn = 0.4
	wd.sample(t0)
	if wd.Triggers()[ReasonSLOBurn] != 0 {
		t.Fatal("burn fired under threshold")
	}
	f.burn = 0.6
	wd.sample(t0.Add(time.Second))
	wd.sample(t0.Add(2 * time.Second)) // persisting: one trigger only
	if got := wd.Triggers()[ReasonSLOBurn]; got != 1 {
		t.Fatalf("burn triggers = %d, want 1", got)
	}
	f.burn = 0.1
	wd.sample(t0.Add(3 * time.Second))
	f.burn = 0.9
	wd.sample(t0.Add(4 * time.Second))
	if got := wd.Triggers()[ReasonSLOBurn]; got != 2 {
		t.Fatalf("burn re-arm triggers = %d, want 2", got)
	}
}

// TestWatchdogDumpFile pins the on-disk dump artifact: a trigger with
// DumpDir set writes fr-<seq>-<reason>.json.
func TestWatchdogDumpFile(t *testing.T) {
	dir := t.TempDir()
	f := &fakeSignals{burn: 1}
	rec := NewRecorder(Config{Workers: 1})
	rec.Record(0, trace.Event{Type: trace.EvPark, Time: 1})
	wd := NewWatchdog(rec, Signals{SLOBurn: func() float64 { return f.burn }},
		WatchdogConfig{DumpDir: dir})
	wd.sample(time.Unix(1000, 0))
	name := filepath.Join(dir, "fr-1-"+ReasonSLOBurn+".json")
	if _, err := os.Stat(name); err != nil {
		t.Fatalf("dump file not written: %v", err)
	}
}

// TestWatchdogStartStop pins lifecycle idempotence, including stopping a
// watchdog that never started.
func TestWatchdogStartStop(t *testing.T) {
	wd := NewWatchdog(nil, Signals{}, WatchdogConfig{})
	wd.Start()
	wd.Start()
	wd.Stop()
	wd.Stop()

	never := NewWatchdog(nil, Signals{}, WatchdogConfig{})
	never.Stop() // must not hang
}
