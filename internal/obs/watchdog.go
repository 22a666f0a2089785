package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Watchdog trigger reasons, the label values of
// adws_watchdog_triggers_total{reason}.
const (
	// ReasonWorkerStall fires when a worker is not parked, has executed
	// no task for at least StallAfter, and jobs are waiting in the
	// admission queue — the "scheduler is wedged while work exists"
	// verdict that degrades /healthz.
	ReasonWorkerStall = "worker_stall"
	// ReasonDeadlineBurst fires when at least deadlineBurst queue
	// deadlines expired within one burstWindow.
	ReasonDeadlineBurst = "deadline_burst"
	// ReasonSLOBurn fires when the SLO burn-rate signal crosses
	// burnThreshold.
	ReasonSLOBurn = "slo_burn"
)

// The watchdog's fixed tuning.
const (
	// sampleInterval is the sampling period.
	sampleInterval = 25 * time.Millisecond
	// deadlineBurst is the number of deadline expiries within one
	// burstWindow that constitutes a burst.
	deadlineBurst = 8
	// burstWindow is the deadline-burst sliding window.
	burstWindow = time.Second
	// burnThreshold is the SLO burn rate that triggers.
	burnThreshold = 0.5
)

// Reasons lists every trigger reason, in metric label order.
func Reasons() []string {
	return []string{ReasonWorkerStall, ReasonDeadlineBurst, ReasonSLOBurn}
}

const (
	reasonIdxStall = iota
	reasonIdxBurst
	reasonIdxBurn
	numReasons
)

// Signals are the cheap sampled inputs the watchdog polls. Each is a
// closure so obs stays independent of the runtime and server packages;
// nil members disable the corresponding check.
type Signals struct {
	// Sched returns the live per-worker scheduler state (progress
	// counters, parked bits). Required for stall detection.
	Sched func() SchedSnapshot
	// QueuedJobs returns the admission queue depth (jobs waiting).
	QueuedJobs func() int
	// OldestQueueAgeNS returns the age of the oldest queued job in
	// nanoseconds (0 when the queue is empty). Reported in Status for
	// operators; not itself a trigger.
	OldestQueueAgeNS func() int64
	// DeadlineExpired returns the cumulative count of jobs whose queue
	// deadline expired.
	DeadlineExpired func() int64
	// SLOBurn returns the current SLO burn rate in [0, 1] — the fraction
	// of recently finished jobs that missed their deadline.
	SLOBurn func() float64
}

// WatchdogConfig parameterizes a Watchdog. Zero values take defaults.
type WatchdogConfig struct {
	// StallAfter is how long a non-parked worker must make no task
	// progress, with jobs queued, before the stall verdict (default
	// 250ms).
	StallAfter time.Duration
	// DumpDir, when non-empty, receives one JSON file per trigger dump
	// (fr-<seq>-<reason>.json). Empty falls back to $ADWS_FR_DIR; both
	// empty keeps dumps in memory only (Recorder.LastDump).
	DumpDir string
	// OnTrigger, when non-nil, observes every trigger's dump (nil Dump
	// when the watchdog has no recorder).
	OnTrigger func(*Dump)
}

func (c WatchdogConfig) withDefaults() WatchdogConfig {
	if c.StallAfter <= 0 {
		c.StallAfter = 250 * time.Millisecond
	}
	if c.DumpDir == "" {
		c.DumpDir = os.Getenv("ADWS_FR_DIR")
	}
	return c
}

// Status is the watchdog's health summary, served by /healthz.
type Status struct {
	// OK is false while a stall verdict is active (the 503 condition).
	OK bool `json:"ok"`
	// StallActive mirrors the live stall verdict.
	StallActive bool `json:"stall_active"`
	// Triggered reports whether the watchdog ever fired.
	Triggered bool `json:"triggered"`
	// LastReason/LastWorker/LastAt describe the most recent trigger
	// (worker -1 for non-stall reasons; zero LastAt when never fired).
	LastReason string    `json:"last_reason,omitempty"`
	LastWorker int       `json:"last_worker"`
	LastAt     time.Time `json:"last_at"`
	// Triggers counts triggers by reason.
	Triggers map[string]int64 `json:"triggers"`
	// OldestQueueAgeNS snapshots the oldest queued job's age at the last
	// sample (0 with an empty queue or no signal).
	OldestQueueAgeNS int64 `json:"oldest_queue_age_ns"`
}

// expSample is one (time, cumulative expiries) observation of the
// deadline-burst window.
type expSample struct {
	at  time.Time
	exp int64
}

// Watchdog samples Signals on a fixed interval and, on a trigger,
// auto-dumps the flight recorder with a scheduler snapshot and counts
// the trigger by reason. Triggers are edge-triggered: a persisting
// condition fires once when it appears and re-arms when it clears.
type Watchdog struct {
	rec *Recorder
	sig Signals
	cfg WatchdogConfig

	triggers [numReasons]atomic.Int64
	// stallActive is the live stall verdict (the /healthz 503 signal).
	stallActive atomic.Bool

	mu sync.Mutex //adws:lockrank(15) sampling may dump under it (dumpMu rank 85)
	// lastTasks/lastProgress track per-worker progress between samples;
	// stalled marks workers with an active stall verdict.
	lastTasks    []int64
	lastProgress []time.Time
	stalled      []bool
	expWindow    []expSample
	burstActive  bool
	burnActive   bool
	lastReason   string
	lastWorker   int
	lastAt       time.Time
	lastQueueAge int64

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewWatchdog builds a watchdog over rec (nil: triggers are counted and
// reported but nothing is dumped) polling sig.
func NewWatchdog(rec *Recorder, sig Signals, cfg WatchdogConfig) *Watchdog {
	return &Watchdog{
		rec:        rec,
		sig:        sig,
		cfg:        cfg.withDefaults(),
		lastWorker: -1,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
}

// Start launches the sampling goroutine. Idempotent.
func (w *Watchdog) Start() {
	w.startOnce.Do(func() {
		go w.run()
	})
}

// Stop halts the sampling goroutine and waits for it. Idempotent; a
// never-started watchdog stops cleanly.
func (w *Watchdog) Stop() {
	w.stopOnce.Do(func() { close(w.stop) })
	w.startOnce.Do(func() { close(w.done) }) // never started: unblock the wait
	<-w.done
}

func (w *Watchdog) run() {
	defer close(w.done)
	tick := time.NewTicker(sampleInterval)
	defer tick.Stop()
	for {
		select {
		case <-w.stop:
			return
		case now := <-tick.C:
			w.sample(now)
		}
	}
}

// Sample runs one sampling step immediately (tests and tooling; the
// normal path is the Start goroutine).
func (w *Watchdog) Sample() { w.sample(time.Now()) }

// sample is one watchdog evaluation at time now.
func (w *Watchdog) sample(now time.Time) {
	queued := 0
	if w.sig.QueuedJobs != nil {
		queued = w.sig.QueuedJobs()
	}
	if w.sig.OldestQueueAgeNS != nil {
		age := w.sig.OldestQueueAgeNS()
		w.mu.Lock()
		w.lastQueueAge = age
		w.mu.Unlock()
	}

	if w.sig.Sched != nil {
		snap := w.sig.Sched()
		w.sampleStall(now, snap, queued)
	}
	if w.sig.DeadlineExpired != nil {
		w.sampleBurst(now)
	}
	if w.sig.SLOBurn != nil {
		w.sampleBurn(now)
	}
}

// sampleStall updates per-worker progress tracking and the stall
// verdict. A worker is stalled when it is not parked, its task counter
// has not moved for StallAfter, and jobs are queued behind it (the task
// counter bumps at execution START, so a single long-running task counts
// as a stall — exactly the "one job wedged the pool" page).
func (w *Watchdog) sampleStall(now time.Time, snap SchedSnapshot, queued int) {
	w.mu.Lock()
	if len(w.lastTasks) != len(snap.Workers) {
		w.lastTasks = make([]int64, len(snap.Workers))
		w.lastProgress = make([]time.Time, len(snap.Workers))
		w.stalled = make([]bool, len(snap.Workers))
		for i, ws := range snap.Workers {
			w.lastTasks[i] = ws.Tasks
			w.lastProgress[i] = now
		}
		w.mu.Unlock()
		return
	}
	newStall := -1
	anyStalled := false
	for i, ws := range snap.Workers {
		if ws.Tasks != w.lastTasks[i] || ws.Parked {
			w.lastTasks[i] = ws.Tasks
			w.lastProgress[i] = now
			w.stalled[i] = false
			continue
		}
		if queued > 0 && now.Sub(w.lastProgress[i]) >= w.cfg.StallAfter {
			if !w.stalled[i] {
				w.stalled[i] = true
				newStall = i
			}
		} else if queued == 0 {
			// No work waiting: the verdict clears even if the worker is
			// still busy — nothing is being starved.
			w.stalled[i] = false
		}
		anyStalled = anyStalled || w.stalled[i]
	}
	w.mu.Unlock()
	w.stallActive.Store(anyStalled)
	if newStall >= 0 {
		w.trigger(ReasonWorkerStall, reasonIdxStall, newStall, now, &snap)
	}
}

// sampleBurst maintains the sliding deadline-expiry window and fires on
// its rising edge.
func (w *Watchdog) sampleBurst(now time.Time) {
	exp := w.sig.DeadlineExpired()
	w.mu.Lock()
	w.expWindow = append(w.expWindow, expSample{at: now, exp: exp})
	cut := 0
	for cut < len(w.expWindow)-1 && now.Sub(w.expWindow[cut].at) > burstWindow {
		cut++
	}
	w.expWindow = w.expWindow[cut:]
	delta := exp - w.expWindow[0].exp
	burst := delta >= deadlineBurst
	fire := burst && !w.burstActive
	w.burstActive = burst
	w.mu.Unlock()
	if fire {
		w.trigger(ReasonDeadlineBurst, reasonIdxBurst, -1, now, nil)
	}
}

// sampleBurn fires on the burn-rate threshold's rising edge.
func (w *Watchdog) sampleBurn(now time.Time) {
	burn := w.sig.SLOBurn()
	w.mu.Lock()
	hot := burn >= burnThreshold
	fire := hot && !w.burnActive
	w.burnActive = hot
	w.mu.Unlock()
	if fire {
		w.trigger(ReasonSLOBurn, reasonIdxBurn, -1, now, nil)
	}
}

// trigger records one firing: bump the reason counter, remember the
// verdict, dump the flight recorder with the scheduler snapshot, write
// the dump file if configured, and notify OnTrigger.
func (w *Watchdog) trigger(reason string, idx, worker int, now time.Time, snap *SchedSnapshot) {
	w.triggers[idx].Add(1)
	w.mu.Lock()
	w.lastReason = reason
	w.lastWorker = worker
	w.lastAt = now
	w.mu.Unlock()

	var d *Dump
	if w.rec != nil {
		if snap == nil && w.sig.Sched != nil {
			s := w.sig.Sched()
			snap = &s
		}
		d = w.rec.Dump(reason, worker, snap)
		if dir := w.cfg.DumpDir; dir != "" {
			w.writeDumpFile(dir, d)
		}
	}
	if w.cfg.OnTrigger != nil {
		w.cfg.OnTrigger(d)
	}
}

// writeDumpFile persists one dump as JSON under dir (best-effort: dump
// files are diagnostics, a full disk must not wedge the watchdog).
func (w *Watchdog) writeDumpFile(dir string, d *Dump) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	name := filepath.Join(dir, fmt.Sprintf("fr-%d-%s.json", d.Seq, d.Reason))
	f, err := os.Create(name)
	if err != nil {
		return
	}
	_ = d.WriteJSON(f)
	_ = f.Close()
}

// Triggers returns the per-reason trigger counts.
func (w *Watchdog) Triggers() map[string]int64 {
	return map[string]int64{
		ReasonWorkerStall:   w.triggers[reasonIdxStall].Load(),
		ReasonDeadlineBurst: w.triggers[reasonIdxBurst].Load(),
		ReasonSLOBurn:       w.triggers[reasonIdxBurn].Load(),
	}
}

// TriggerTotal returns the total trigger count across reasons.
func (w *Watchdog) TriggerTotal() int64 {
	var t int64
	for i := range w.triggers {
		t += w.triggers[i].Load()
	}
	return t
}

// StallActive reports whether a stall verdict is currently active (the
// /healthz 503 condition).
func (w *Watchdog) StallActive() bool { return w.stallActive.Load() }

// Status returns the watchdog's health summary.
func (w *Watchdog) Status() Status {
	stall := w.stallActive.Load()
	w.mu.Lock()
	st := Status{
		OK:               !stall,
		StallActive:      stall,
		Triggered:        false,
		LastReason:       w.lastReason,
		LastWorker:       w.lastWorker,
		LastAt:           w.lastAt,
		Triggers:         nil,
		OldestQueueAgeNS: w.lastQueueAge,
	}
	w.mu.Unlock()
	st.Triggers = w.Triggers()
	st.Triggered = w.TriggerTotal() > 0
	return st
}
