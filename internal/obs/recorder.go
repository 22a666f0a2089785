// Package obs is the always-on observability layer over the scheduler:
// a flight recorder (a small, always-on trace ring per worker with a
// live, consistent dump), a watchdog that samples cheap scheduler
// signals and auto-dumps on stalls, deadline-miss bursts, and SLO burn,
// and the scheduler state snapshot types the live introspection
// endpoints (/debug/sched, /debug/fr) serve.
//
// Layering: obs sits between the runtime and the trace layer. The
// runtime records into a Recorder exactly as it records into a Tracer
// (nil costs one pointer check per site); the watchdog reads scheduler
// state only through the Signals closures, so obs never imports the
// runtime or server packages.
package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/parlab/adws/internal/trace"
)

// DefaultCapacity is the per-worker flight-recorder ring capacity. It is
// deliberately small next to trace.DefaultCapacity: the recorder is a
// black box holding the recent past, not a full-run trace.
const DefaultCapacity = 4096

// DefaultDepthLimit bounds task-span recording: task begin/end and wait
// enter/exit events are kept only when their spawn depth (root task = 0,
// each Spawn adds one) is at most this. Steals, migrations, parks, wakes,
// and boundary crossings are always kept. The filter keys on spawn depth
// rather than the scheduler's group depth because the latter saturates
// for worker-local work and would let every microtask through.
const DefaultDepthLimit = 1

// alwaysMask selects the event types the recorder keeps at any depth:
// rare scheduler transitions (steals, migrations, parks, wakes,
// multi-level boundaries) whose cost is off the per-task hot path.
const alwaysMask = 1<<trace.EvStealAttempt | 1<<trace.EvStealSuccess |
	1<<trace.EvStealFail | 1<<trace.EvMigration | 1<<trace.EvPark |
	1<<trace.EvWake | 1<<trace.EvBoundary

// shallowMask selects the event types recorded only at shallow spawn
// depth: per-task spans and waits, which at depth ≤ DefaultDepthLimit mark
// root/job-level progress but deeper down would cost a timestamp per
// microtask and blow the recorder's near-nil overhead budget.
const shallowMask = 1<<trace.EvTaskBegin | 1<<trace.EvTaskEnd |
	1<<trace.EvWaitEnter | 1<<trace.EvWaitExit

// paddedNS is an atomic timestamp padded to its own cache line: one per
// worker, written on every recorded event by that worker only.
type paddedNS struct {
	atomic.Int64
	_ [56]byte
}

// Config parameterizes a Recorder.
type Config struct {
	// Workers is the worker count (required, positive).
	Workers int
	// Capacity is the per-worker ring capacity in events
	// (<= 0: DefaultCapacity).
	Capacity int
}

// Recorder is the flight recorder: per-worker bounded rings over the
// trace.Event schema, always on, overwriting oldest. Recording follows
// the tracer's contract — only worker w's goroutine calls Record(w, ·) —
// and costs nothing on filtered events beyond the Wants check, which
// callers run BEFORE building the event (the timestamp is the expensive
// part). Dump cuts all rings into a consistent cross-worker snapshot
// without stopping the pool.
type Recorder struct {
	t *trace.Tracer
	// last[w] is the Event.Time of worker w's most recently recorded
	// event, 0 before the first (the /debug/sched last-event age).
	last []paddedNS

	// dumpMu serializes dumps (ring cuts are destructive).
	dumpMu   sync.Mutex //adws:lockrank(85) Dump cuts the tracer ring under it (trace.mu rank 90)
	seq      atomic.Int64
	lastDump atomic.Pointer[Dump]
}

// NewRecorder builds a flight recorder.
func NewRecorder(cfg Config) *Recorder {
	if cfg.Workers <= 0 {
		panic("obs: recorder worker count must be positive")
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	return &Recorder{
		t:    trace.New(cfg.Workers, cfg.Capacity),
		last: make([]paddedNS, cfg.Workers),
	}
}

// Wants reports whether the recorder keeps events of type t at spawn
// depth depth. It is nil-receiver-safe and is THE hot-path gate: callers
// check it before constructing the event (and before reading the clock),
// so a filtered event costs a pointer check, a mask test, and a compare.
//
//adws:hotpath
func (r *Recorder) Wants(t trace.EventType, depth int32) bool {
	if r == nil {
		return false
	}
	b := uint32(1) << t
	return b&alwaysMask != 0 || (b&shallowMask != 0 && depth <= DefaultDepthLimit)
}

// Record appends ev to worker w's ring, overwriting the oldest event
// when full, and refreshes the worker's last-event timestamp. Callers
// must have passed Wants for the event's type and depth; only worker w's
// own goroutine may call Record(w, ·).
//
//adws:hotpath
func (r *Recorder) Record(w int, ev trace.Event) {
	r.t.Record(w, ev)
	r.last[w].Store(ev.Time)
}

// NumWorkers returns the number of per-worker rings.
func (r *Recorder) NumWorkers() int { return r.t.NumWorkers() }

// Capacity returns the per-worker ring capacity in events.
func (r *Recorder) Capacity() int { return r.t.Capacity() }

// LastNS returns worker w's most recent recorded-event timestamp
// (Event.Time units, i.e. wall-clock nanoseconds in the real runtime), or
// 0 if the worker has recorded nothing since the last reset.
func (r *Recorder) LastNS(w int) int64 { return r.last[w].Load() }

// Drops returns the total number of events lost to ring wraparound — the
// recorder's normal steady state once a window's worth of history has
// passed.
func (r *Recorder) Drops() int64 { return r.t.Drops() }

// Dump cuts every worker's ring into one consistent, time-sorted event
// window and returns it wrapped with the dump's metadata and the given
// scheduler snapshot (may be nil). Dumping is safe while the pool runs
// — each worker loses at most its one in-flight event — and is
// DESTRUCTIVE: the returned events are consumed from the rings, so the
// next dump starts an empty window. The last dump is retained
// (LastDump).
func (r *Recorder) Dump(reason string, worker int, sched *SchedSnapshot) *Dump {
	r.dumpMu.Lock()
	defer r.dumpMu.Unlock()
	d := &Dump{
		Seq:     r.seq.Add(1),
		Reason:  reason,
		Worker:  worker,
		TakenAt: time.Now(),
		Workers: r.t.NumWorkers(),
		Events:  r.t.Cut(),
		Sched:   sched,
	}
	r.lastDump.Store(d)
	return d
}

// LastDump returns the most recent dump, or nil.
func (r *Recorder) LastDump() *Dump { return r.lastDump.Load() }
