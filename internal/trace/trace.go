// Package trace is a low-overhead scheduler event tracer shared by the
// real runtime (internal/runtime) and the discrete-event simulator
// (internal/sim). Both emit the same event schema, so a simulated run and
// a real run of the same program are directly diffable.
//
// Each worker owns a fixed-capacity ring buffer. Recording takes no locks:
// the worker writes the next slot and advances one atomic cursor. When the
// ring wraps, the oldest events are overwritten; the number of overwritten
// events is exposed as a monotonically increasing drop counter. Readers
// (Events, WriteChromeTrace, Summarize) must only run while the traced
// pool or engine is quiescent — after Run returned and, for the real
// runtime, typically after Close.
//
// Cut is the exception: it detaches each ring's storage by atomically
// swapping in a fresh frame and reads only the retired one, so
// a flight-recorder dump can take a consistent snapshot while the pool
// keeps running, at the cost of losing at most one in-flight event per
// worker per cut (see ring.cut for the protocol).
//
// Timestamps are wall-clock nanoseconds (time.Now().UnixNano(), not
// monotonic; ROADMAP.md item 18(a)) in the real runtime. The simulator
// records virtual time scaled by 1000 (millivirtual units) so sub-unit
// cost-model resolution survives the integer conversion.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
)

// EventType identifies one kind of scheduler event.
type EventType uint8

const (
	// EvTaskBegin marks a task starting execution on a worker. Task is the
	// task's creation ordinal, Depth the group depth, RangeLo/RangeHi the
	// task's distribution range (ADWS; zero for WS tasks).
	EvTaskBegin EventType = iota
	// EvTaskEnd marks the matching completion of EvTaskBegin.
	EvTaskEnd
	// EvStealAttempt marks one victim probe. Self and Victim are logical
	// entity indices; RangeLo/RangeHi the dominant-group steal range in
	// effect ([lo,hi), zero-width for WS domains); Depth the minimum
	// stealable depth.
	EvStealAttempt
	// EvStealSuccess marks a probe that yielded a task (Task is the stolen
	// task's ordinal). It always follows an EvStealAttempt for the same
	// victim.
	EvStealSuccess
	// EvStealFail marks a whole steal round (up to sched.MaxStealTries
	// probes on one entity) that found nothing.
	EvStealFail
	// EvMigration marks an ADWS deterministic task migration at spawn
	// time: Self is the spawning entity, Victim the destination entity,
	// Task the migrated task's ordinal, RangeLo/RangeHi its range.
	EvMigration
	// EvWaitEnter marks a task entering a task-group wait (Task is the
	// waiting task's ordinal, Depth the children's group depth).
	EvWaitEnter
	// EvWaitExit marks the matching wait completion.
	EvWaitExit
	// EvBoundary marks a multi-level scheduling boundary crossing: a group
	// tied to a cache, a cache-hierarchy flattening, or their teardown.
	// Victim holds the BoundaryKind, Depth the cache level, Task the
	// domain id involved.
	EvBoundary
	// EvPark marks a worker blocking on its parker after finding no work
	// (spin → yield → park; see internal/runtime/park.go).
	EvPark
	// EvWake marks the matching unblock: a producer's targeted wakeup
	// (push, root submission, group completion, or shutdown).
	EvWake

	numEventTypes = iota
)

func (t EventType) String() string {
	switch t {
	case EvTaskBegin:
		return "task-begin"
	case EvTaskEnd:
		return "task-end"
	case EvStealAttempt:
		return "steal-attempt"
	case EvStealSuccess:
		return "steal-success"
	case EvStealFail:
		return "steal-fail"
	case EvMigration:
		return "migration"
	case EvWaitEnter:
		return "wait-enter"
	case EvWaitExit:
		return "wait-exit"
	case EvBoundary:
		return "boundary"
	case EvPark:
		return "park"
	case EvWake:
		return "wake"
	default:
		return "unknown"
	}
}

// Boundary kinds, recorded in Event.Victim of EvBoundary events.
const (
	BoundaryTie int32 = iota
	BoundaryFlatten
	BoundaryUntie
	BoundaryUnflatten
)

// BoundaryKindString names a boundary kind.
func BoundaryKindString(k int32) string {
	switch k {
	case BoundaryTie:
		return "tie"
	case BoundaryFlatten:
		return "flatten"
	case BoundaryUntie:
		return "untie"
	case BoundaryUnflatten:
		return "unflatten"
	default:
		return "unknown"
	}
}

// Event is one scheduler event. Field meaning depends on Type (see the
// EventType constants); unused fields are zero.
type Event struct {
	Type EventType
	// Worker is the recording worker; Record fills it in.
	Worker int32
	// Self and Victim are logical entity indices (steal and migration
	// events); Victim doubles as the BoundaryKind of EvBoundary events.
	Self, Victim int32
	// Depth is the task/group depth, the minimum stealable depth of steal
	// events, or the cache level of EvBoundary events.
	Depth int32
	// Time is the event timestamp: wall-clock nanoseconds (real runtime) or
	// virtual time ×1000 (simulator).
	Time int64
	// Task is the task ordinal, or the domain id for EvBoundary events.
	Task int64
	// Job is the root-job ordinal the event is attributable to: task spans,
	// waits, and migrations carry the job of the task involved, and steal
	// successes carry the stolen task's job. Zero means unattributable
	// (steal attempts and failed rounds probe queues that may hold any
	// job's tasks, and boundary events belong to the pool).
	Job int64
	// RangeLo and RangeHi carry the distribution or steal range [lo, hi).
	RangeLo, RangeHi float64
}

// frame is one generation of a ring's storage. base is the ordinal of
// the first event the frame may hold: earlier ordinals lived in frames
// that a previous cut retired. The recording worker never reads base;
// cut/snapshot/drops read and write it only under the tracer's mutex.
type frame struct {
	base int64
	ev   []Event
}

// ring is one worker's event buffer. Only the owning worker writes;
// cursor counts every event ever recorded, so the occupied window of the
// live frame is [max(base, cursor-cap), cursor). Storage is reached
// through an atomic frame pointer so a reader can cut the ring — swap in
// a fresh frame and walk the retired one — while the worker keeps
// recording. The cursor owns a full cache line and the struct is padded
// to a whole number of lines, so in the tracer's rings slice no worker's
// cursor store can invalidate a neighbour's cursor or frame pointer
// (layout pinned by TestRingLayout).
type ring struct {
	cursor atomic.Int64
	_      [56]byte
	buf    atomic.Pointer[frame]
	_      [56]byte
	// lost counts events wrapped away in frames that cuts retired;
	// guarded by the tracer's mutex (cuts never touch the hot path).
	lost int64
	_    [56]byte
}

// record appends one event. The frame double-check makes recording safe
// against a concurrent cut: if the frame was swapped between the load
// and the slot write, the event is redone into the live frame so it is
// not stranded in the retired one. Release/acquire through cursor is
// what publishes the slot write to the cutter.
//
//adws:hotpath
func (r *ring) record(ev Event) {
	c := r.cursor.Load()
	f := r.buf.Load()
	f.ev[c%int64(len(f.ev))] = ev
	if f2 := r.buf.Load(); f2 != f {
		f2.ev[c%int64(len(f2.ev))] = ev
	}
	r.cursor.Store(c + 1)
}

// cut retires the ring's current frame and returns its surviving events,
// oldest first, while the owning worker may keep recording. Correctness
// of the swap: the cursor is read AFTER installing the fresh frame, so
// every ordinal below it was fully published (its cursor store
// happened-before our load) and lives in the retired frame. Only the one
// ordinal equal to the cursor can be mid-record; it may land in either
// frame, may have clobbered the retired frame's slot it maps to, and is
// therefore excluded from the retired window AND from the fresh frame's
// base — a cut loses at most that one event per ring. Callers must hold
// the tracer's mutex (cuts are serialized; the writer is not).
func (r *ring) cut() []Event {
	old := r.buf.Load()
	fresh := &frame{ev: make([]Event, len(old.ev))}
	r.buf.Store(fresh)
	c := r.cursor.Load()
	fresh.base = c + 1
	n := int64(len(old.ev))
	start := old.base
	// Skip the slot ordinal c maps to: its previous resident (ordinal
	// c-n) may be mid-overwrite by the in-flight record.
	if s := c + 1 - n; s > start {
		start = s
	}
	// base may sit one past the cursor (the previous cut excluded an
	// in-flight ordinal that was never completed): an empty window, not a
	// negative one.
	if start > c {
		start = c
	}
	out := make([]Event, 0, c-start)
	for i := start; i < c; i++ {
		out = append(out, old.ev[i%n])
	}
	if lost := start - old.base; lost > 0 {
		r.lost += lost
	}
	return out
}

func (r *ring) drops() int64 {
	f := r.buf.Load()
	d := r.lost
	if o := r.cursor.Load() - f.base - int64(len(f.ev)); o > 0 {
		d += o
	}
	return d
}

// snapshot returns the ring's surviving events, oldest first. Quiescent
// readers only.
func (r *ring) snapshot() []Event {
	f := r.buf.Load()
	c := r.cursor.Load()
	n := int64(len(f.ev))
	start := f.base
	if s := c - n; s > start {
		start = s
	}
	out := make([]Event, 0, c-start)
	for i := start; i < c; i++ {
		out = append(out, f.ev[i%n])
	}
	return out
}

// DefaultCapacity is the per-worker ring capacity used when none is given.
const DefaultCapacity = 1 << 18

// Tracer records scheduler events into per-worker ring buffers.
type Tracer struct {
	rings []ring
	// mu serializes cuts and the reader-side frame bookkeeping (base,
	// lost). Recording never takes it.
	mu sync.Mutex //adws:lockrank(90) leaf: Cut is called with obs.dumpMu (rank 85) held
}

// New creates a tracer for `workers` workers with `capacity` events per
// worker (DefaultCapacity if capacity <= 0).
func New(workers, capacity int) *Tracer {
	if workers <= 0 {
		panic("trace: worker count must be positive")
	}
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	t := &Tracer{rings: make([]ring, workers)}
	for i := range t.rings {
		t.rings[i].buf.Store(&frame{ev: make([]Event, capacity)})
	}
	return t
}

// NumWorkers returns the number of per-worker rings.
func (t *Tracer) NumWorkers() int { return len(t.rings) }

// Capacity returns the per-worker ring capacity.
func (t *Tracer) Capacity() int { return len(t.rings[0].buf.Load().ev) }

// Record appends an event to worker w's ring, overwriting the oldest event
// when full. It is the hot path: no locks, one atomic cursor update. Only
// worker w's own goroutine may call Record(w, ...).
//
//adws:hotpath
func (t *Tracer) Record(w int, ev Event) {
	ev.Worker = int32(w)
	t.rings[w].record(ev)
}

// Drops returns the total number of events overwritten by ring wraparound
// across all workers. It only grows. Cuts may additionally skip up to one
// in-flight event per worker per cut; those are not counted.
func (t *Tracer) Drops() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d int64
	for i := range t.rings {
		d += t.rings[i].drops()
	}
	return d
}

// Events returns every surviving event merged across workers, sorted by
// timestamp (stable: each worker's own order is preserved). The tracer
// must be quiescent.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Event
	for i := range t.rings {
		out = append(out, t.rings[i].snapshot()...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}

// Cut detaches every worker's buffered events, leaving the rings empty,
// and returns them merged and time-sorted — the flight-recorder dump
// primitive. Unlike Events it is safe while the traced pool runs: each
// worker's in-flight record (at most one event) is the only event a cut
// can lose. Cutting is destructive — the returned events are no longer
// in the rings.
func (t *Tracer) Cut() []Event {
	t.mu.Lock()
	var out []Event
	for i := range t.rings {
		out = append(out, t.rings[i].cut()...)
	}
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}
