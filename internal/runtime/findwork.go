package runtime

import (
	"github.com/parlab/adws/internal/sched"
	"github.com/parlab/adws/internal/trace"
)

// findTask implements GETRUNNABLETASK (paper Fig. 11) for this worker:
// local pops from the entities the worker acts for, then steals within the
// current dominant-group steal range (ADWS) or uniformly (WS).
//
// g is the group whose Wait the worker is blocked in, nil at the top of the
// scheduler loop. A helping wait runs only tasks of depth >= g.ChildDepth:
// the floor binds the local pops from queues of g's own domain as well as
// every steal. A shallower task belongs to an enclosing group; run under
// the wait it would bury the wait's continuation — the only thing that
// feeds the workers g's children were migrated to — beneath a whole
// unrelated subtree. It stays queued until the wait returns, and is then
// run by its owner or stolen once the enclosing group is dominant, which is
// the paper's order ("returned continuations have the highest priority",
// §3.1). That this cannot deadlock is argued in DESIGN.md. Queues of another
// domain (multi-level policies) number their depths from their own root and
// are popped without a floor.
func (w *worker) findTask(g *taskGroup) *task {
	cands := w.candidates()
	// Claim a freshly submitted root task if we act for its owner entity.
	// Only the top of the scheduler loop (g nil) claims roots: starting a
	// new root inside a helping wait would trap the waiting group behind
	// the whole new computation.
	if g == nil && w.pool.rootN.Load() > 0 {
		if t := w.pool.claimRoot(cands); t != nil {
			w.noteStart(t.ent, t)
			return t
		}
	}
	var floorDom *domain
	floor := 0
	if g != nil {
		floorDom, floor = g.dom, g.ChildDepth
	}
	for _, ent := range cands {
		from := 0
		if ent.dom == floorDom {
			from = floor
		}
		if t := ent.popLocal(from); t != nil {
			w.noteStart(ent, t)
			return t
		}
	}
	for _, ent := range cands {
		if t := w.trySteal(ent, floor); t != nil {
			w.noteStart(ent, t)
			return t
		}
	}
	return nil
}

// noteStart records that task t begins on entity e: e becomes the task's
// entity (a stolen task changes hands here) and the task's cross-worker
// group becomes e's steal anchor. Consecutive tasks almost always share
// that group, so the steady path is a load and a compare, not an XCHG per
// task.
//
//adws:hotpath
func (w *worker) noteStart(e *entity, t *task) {
	if t.group != nil && e.lastGroup.Load() != t.group {
		e.lastGroup.Store(t.group)
	}
	t.ent = e
}

// candidates returns the entities this worker may act for, in priority
// order (sched.ActingOrder): live flattened domains, then the entity of
// the cache the worker leads.
func (w *worker) candidates() []*entity {
	p := w.pool
	if !p.policy.isML() {
		return w.self
	}
	w.fdMu.Lock()
	live := w.fdEnts[:0]
	for _, ent := range w.fdEnts {
		if !ent.dom.closed.Load() {
			live = append(live, ent)
		}
	}
	w.fdEnts = live
	out, alsoLed := sched.ActingOrder(live)
	w.fdMu.Unlock()
	if !alsoLed {
		return out
	}
	p.ml.Lock()
	if c := p.ml.lead.Leads(w.id); c != nil {
		if ent := p.ml.caches[c.Level][c.Index].entity; ent != nil && !ent.dom.closed.Load() {
			out = append(out, ent)
		}
	}
	p.ml.Unlock()
	return out
}

// probed does the bookkeeping of one victim probe that began at start
// and stole t (nil: nothing), and returns the probe's end stamp, which is
// also the next probe's start. That one clock read serves the worker's
// attempt and steal counters, the stolen task's job, the probe histogram,
// and the attempt (stamped start) and success (stamped end) events. ev
// carries the probe's Self, Victim, Depth and range.
//
//adws:hotpath
func (w *worker) probed(ev trace.Event, start int64, t *task) int64 {
	end := now()
	w.stats.stealAttempts.Add(1)
	w.pool.probeHist.Record(w.id, end-start)
	if w.wantEv(trace.EvStealAttempt, ev.Depth) {
		ev.Type, ev.Time = trace.EvStealAttempt, start
		w.emit(ev, ev.Depth)
	}
	if t != nil {
		w.stats.steals.Add(1)
		if t.job != nil {
			t.job.steals.Add(1)
		}
		if w.wantEv(trace.EvStealSuccess, ev.Depth) {
			ev.Type, ev.Time = trace.EvStealSuccess, end
			ev.Task, ev.Job = t.seq, t.jobID()
			w.emit(ev, ev.Depth)
		}
	}
	return end
}

// stealFailed records the fail event of a steal round whose last probe
// ended at end.
func (w *worker) stealFailed(ev trace.Event, end int64) {
	if w.wantEv(trace.EvStealFail, ev.Depth) {
		ev.Type, ev.Victim, ev.Time = trace.EvStealFail, 0, end
		w.emit(ev, ev.Depth)
	}
}

// trySteal makes one bounded round of random steal probes for entity ent:
// inside the dominant group's steal range under ADWS (sched.PlanSteal),
// uniformly over the domain under WS. A round of k probes reads the clock
// k + 1 times.
func (w *worker) trySteal(ent *entity, minDepth int) *task {
	d := ent.dom
	if d.adws {
		plan, ok := sched.PlanSteal(ent.lastGroup.Load(), d.Axis, ent.idx, minDepth)
		if !ok {
			return nil
		}
		ev := trace.Event{Self: int32(plan.Self), Depth: int32(plan.MinDepth)}
		ev.RangeLo, ev.RangeHi = plan.HalfOpen()
		stamp := now()
		for a := 0; a < plan.Tries; a++ {
			v := plan.Draw(w.rng)
			ev.Victim = int32(v.Logical)
			var t *task
			if v.Migration {
				t = d.entities[v.Physical].stealMigration(plan.MinDepth)
			}
			if t == nil && v.Primary {
				t = d.entities[v.Physical].stealPrimary(plan.MinDepth)
			}
			if stamp = w.probed(ev, stamp, t); t != nil {
				t.inMigration = false
				t.rng = d.Rebase(t.rng, plan.Self)
				return t
			}
		}
		w.stealFailed(ev, stamp)
		return nil
	}
	tries := sched.UniformTries(d.N)
	if tries <= 0 {
		return nil
	}
	ev := trace.Event{Self: int32(ent.idx)}
	stamp := now()
	for a := 0; a < tries; a++ {
		v := sched.UniformVictim(w.rng, d.N, ent.idx)
		ev.Victim = int32(v)
		t := d.entities[v].stealPrimary(0)
		if stamp = w.probed(ev, stamp, t); t != nil {
			return t
		}
	}
	w.stealFailed(ev, stamp)
	return nil
}
