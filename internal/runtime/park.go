package runtime

import (
	"math"
	"math/bits"

	"github.com/parlab/adws/internal/trace"
)

// Per-worker parking with targeted wakeups.
//
// Every worker owns a one-slot wake channel (a binary semaphore) and the
// pool keeps an atomic bitmask of parked workers plus a mirror count. The
// protocol is futex-style:
//
//   - A worker that finds no work spins, yields, then advertises itself in
//     the idle bitmask and RE-CHECKS for work before blocking. Work is
//     always published before the producer reads the bitmask, so with
//     sequentially consistent atomics one of the two sides must see the
//     other (Dekker store/load pairing): either the producer observes the
//     idle bit and wakes the worker, or the worker's recheck observes the
//     work. A parked worker therefore blocks indefinitely — no timeout, no
//     helper goroutine — and a fully idle pool costs zero CPU.
//
//   - A producer (Spawn push, root submission, final task completion of a
//     waited group, shutdown) first checks the parked-worker count: when
//     nothing is parked the wakeup is one atomic load and the global
//     idle lock of the previous design is gone from the hot path. When
//     workers are parked it wakes exactly ONE, claiming the victim's idle
//     bit by CAS so concurrent producers never double-spend a wakeup.
//
// Targeting: wakeups prefer the worker that scheduling wants to run the
// task — the destination entity's acting worker, then a worker inside the
// task's locality domain (the flattened-domain members or the root job's
// submitted range, i.e. the workers whose ADWS steal ranges can reach the
// task) — and fall back to any parked worker. Cache-level entities have no
// fixed acting worker (leadership moves under Pool.ml), so pushes to them
// wake all parked workers, as the old broadcast did; those domains are
// coarse-grained boundary crossings, not the hot path.

// parkSpins is the number of find-nothing rounds a worker yields through
// before it parks (spin → yield → park).
const parkSpins = 8

// idleWord returns the mask word and bit for worker id.
func (p *Pool) idleWord(id int) (*paddedWord, uint64) {
	return &p.idleWords[id>>6], 1 << (id & 63)
}

// parkPrepare advertises worker w as parked: idle bit, then count. The
// caller must re-check for work (and shutdown) before actually blocking.
//
//adws:hotpath
func (p *Pool) parkPrepare(w *worker) {
	word, bit := p.idleWord(w.id)
	for {
		old := word.Load()
		if word.CompareAndSwap(old, old|bit) {
			break
		}
	}
	p.nparked.Add(1)
}

// claimIdle clears worker id's idle bit and reports whether this call did
// the clearing (claimed the wakeup).
//
//adws:hotpath
func (p *Pool) claimIdle(id int) bool {
	word, bit := p.idleWord(id)
	for {
		old := word.Load()
		if old&bit == 0 {
			return false
		}
		if word.CompareAndSwap(old, old&^bit) {
			return true
		}
	}
}

// parkCancel withdraws worker w's advertised park after its recheck found
// work. If a producer claimed w concurrently, its wake token is already in
// flight; absorb it so no stale token survives into the next park cycle.
func (p *Pool) parkCancel(w *worker) {
	if p.claimIdle(w.id) {
		p.nparked.Add(-1)
		return
	}
	<-w.parkCh
}

// tryWake wakes worker w if it is advertised as parked. Exactly one token
// is sent per successful claim; the one-slot channel never blocks because
// a worker consumes its token before it can advertise again.
//
//adws:hotpath
func (p *Pool) tryWake(w *worker) bool {
	if !p.claimIdle(w.id) {
		return false
	}
	p.nparked.Add(-1)
	// The one-slot semaphore send cannot block (see above): this is the
	// single sanctioned channel op on the wakeup fast path.
	w.parkCh <- struct{}{} //adws:allow
	return true
}

// wakeRange wakes one parked worker with id in [lo, hi), if any.
//
//adws:hotpath
func (p *Pool) wakeRange(lo, hi int) bool {
	if lo < 0 {
		lo = 0
	}
	if hi > len(p.workers) {
		hi = len(p.workers)
	}
	for i := lo; i < hi; i++ {
		if p.tryWake(p.workers[i]) {
			return true
		}
	}
	return false
}

// wakeAnyParked wakes one parked worker, scanning the idle bitmask.
//
//adws:hotpath
func (p *Pool) wakeAnyParked() bool {
	for wi := range p.idleWords {
		for {
			mask := p.idleWords[wi].Load()
			if mask == 0 {
				break
			}
			id := wi<<6 + bits.TrailingZeros64(mask)
			if p.tryWake(p.workers[id]) {
				return true
			}
			// Lost the claim race; rescan the word for other bits.
		}
	}
	return false
}

// wakeAllParked wakes every currently parked worker (shutdown, and pushes
// to cache-level entities whose acting worker is a moving leadership).
//
//adws:hotpath
func (p *Pool) wakeAllParked() {
	for _, w := range p.workers {
		p.tryWake(w)
	}
}

// wakeFor wakes one parked worker able to reach a task just pushed to
// entity e on behalf of job j (nil outside job-carrying spawns).
// Producers call it AFTER publishing the task; when no worker is parked
// it costs a single atomic load. The destination entity is passed
// explicitly — a claiming worker may already be rewriting the published
// task's fields (noteStart), so the producer must not re-read them.
//
//adws:hotpath
func (p *Pool) wakeFor(e *entity, j *RootJob) {
	if p.nparked.Load() == 0 {
		return
	}
	if e == nil || e.workerID < 0 {
		p.wakeAllParked()
		return
	}
	// The entity's acting worker executes the task with full locality.
	if p.tryWake(p.workers[e.workerID]) {
		return
	}
	// It is busy: wake a thief whose steal range can reach the task —
	// a member of the flattened domain, or (at the root level) a worker
	// inside the job's submitted range.
	if e.dom.flattened {
		for _, sib := range e.dom.entities {
			if sib.workerID != e.workerID && p.tryWake(p.workers[sib.workerID]) {
				return
			}
		}
	} else if j != nil && !p.policy.isML() {
		if p.wakeRange(int(j.rng.X), int(math.Ceil(j.rng.Y))) {
			return
		}
	}
	p.wakeAnyParked()
}

// wakeForRoot wakes the one worker that can claim a root freshly
// submitted to owner entity e: roots are claimed only by their owner
// entity's acting worker, so waking anyone else is wasted. Cache-level
// owners (multi-level policies) have no fixed acting worker; wake
// everyone parked instead. Like wakeFor, e is passed explicitly because
// the published root task is no longer the producer's to read.
//
//adws:hotpath
func (p *Pool) wakeForRoot(e *entity) {
	if p.nparked.Load() == 0 {
		return
	}
	if e != nil && e.workerID >= 0 {
		p.tryWake(p.workers[e.workerID])
		return
	}
	p.wakeAllParked()
}

// park blocks worker w until a producer wakes it, after advertising and
// re-checking. g is non-nil for a parking task-group wait; the group's
// last completion then also wakes the worker (Pool.taskDone). park returns
// a task when the recheck found one (the caller executes it) and nil after
// a wakeup, a cancellation, or shutdown.
func (w *worker) park(g *taskGroup) *task {
	p := w.pool
	// The worker is going idle: clear the live-introspection current job so
	// /debug/sched and the watchdog stop attributing runtime to it.
	w.curJob.Store(0)
	if g != nil {
		g.waiter.Store(int32(w.id))
	}
	p.parkPrepare(w)
	// Recheck after advertising: anything published before the producer
	// read our idle bit is visible now.
	if p.shutdown.Load() || (g != nil && g.remaining.Load() == 0) {
		p.parkCancel(w)
		return nil
	}
	if t := w.findTask(g); t != nil {
		p.parkCancel(w)
		return t
	}
	// One stamp on each side of the block, shared by the park/wake events,
	// the park histogram and the pending wake-to-run span.
	parkAt := now()
	if w.wantEv(trace.EvPark, 0) {
		w.emit(trace.Event{Type: trace.EvPark, Time: parkAt}, 0)
	}
	// Blocking again makes any pending wake spurious: that wakeup never led
	// to a task, so drop its wake-to-run measurement instead of recording a
	// duration that ends in another park.
	w.wakeAt = 0
	w.stats.parks.Add(1)
	<-w.parkCh
	w.stats.wakes.Add(1)
	w.wakeAt = now()
	p.parkHist.Record(w.id, w.wakeAt-parkAt)
	if w.wantEv(trace.EvWake, 0) {
		w.emit(trace.Event{Type: trace.EvWake, Time: w.wakeAt}, 0)
	}
	return nil
}
