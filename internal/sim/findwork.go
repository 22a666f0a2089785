package sim

import (
	"github.com/parlab/adws/internal/sched"
	"github.com/parlab/adws/internal/trace"
)

// maxBackoffFactor bounds the exponential idle backoff to IdlePoll × 8.
const maxBackoffFactor = 8

// findWork is the scheduler loop body of an idle worker (paper Fig. 11,
// GETRUNNABLETASK): resume returned continuations first, then pop local
// queues, then steal within the current steal range.
func (e *Engine) findWork(w *worker) {
	if e.done {
		return
	}
	// 1. Returned continuations have the highest priority (§3.1).
	if n := len(w.resume); n > 0 {
		t := w.resume[n-1]
		w.resume = w.resume[:n-1]
		e.startTask(w, t, t.ent, 0, e.costs.ResumeOverhead)
		return
	}
	if e.cfg.Mode == SB {
		e.findWorkSB(w)
		return
	}

	cands := e.candidates(w)
	// 2. Local queues.
	for _, ent := range cands {
		if t, ok := ent.queues.PopLocal(); ok {
			e.startTask(w, t, ent, 0, 0)
			return
		}
	}
	// 3. Steal within each candidate domain.
	var searched float64
	for _, ent := range cands {
		if t, ok := e.trySteal(w, ent, &searched); ok {
			e.startTask(w, t, ent, searched, e.costs.StealSuccess)
			return
		}
	}
	e.goIdle(w, searched)
}

// candidates returns the entities worker w may act for, in priority order
// (sched.ActingOrder): live flattened-domain entities, then the entity of
// the cache the worker currently leads. The result is valid until the
// next call; an idle poll with nothing flattened allocates nothing.
func (e *Engine) candidates(w *worker) []*entity {
	if !e.cfg.Mode.IsMultiLevel() {
		return e.rootDom.entities[w.id : w.id+1 : w.id+1]
	}
	// Prune closed flattened domains in place.
	live := w.fdEnts[:0]
	for _, ent := range w.fdEnts {
		if !ent.dom.closed {
			live = append(live, ent)
		}
	}
	w.fdEnts = live
	out, alsoLed := sched.ActingOrder(live)
	if !alsoLed {
		return out
	}
	// alsoLed means nothing is flattened, so out is empty.
	if c := e.lead.Leads(w.id); c != nil {
		if ent := e.mlCaches[c.Level][c.Index].entity; ent != nil && !ent.dom.closed {
			w.led[0] = ent
			return w.led[:]
		}
	}
	return out
}

// stealEvent stamps and records a steal-probe event when tracing; t is the
// stolen task of a success event, nil otherwise.
func (e *Engine) stealEvent(w *worker, ev trace.Event, t *Task) {
	tr := e.cfg.Tracer
	if tr == nil {
		return
	}
	ev.Time = e.vt()
	if t != nil {
		ev.Task = e.ordinal(t)
	}
	tr.Record(w.id, ev)
}

// trySteal makes one bounded round of random steal probes for entity ent,
// accumulating the time spent in *searched: inside the dominant group's
// steal range under ADWS (sched.PlanSteal), uniformly over the domain
// under WS.
func (e *Engine) trySteal(w *worker, ent *entity, searched *float64) (*Task, bool) {
	d := ent.dom
	if d.adws {
		plan, ok := sched.PlanSteal(ent.lastGroup, d.Axis, ent.idx, 0)
		if !ok {
			return nil, false
		}
		ev := trace.Event{Self: int32(plan.Self), Depth: int32(plan.MinDepth)}
		ev.RangeLo, ev.RangeHi = plan.HalfOpen()
		for a := 0; a < plan.Tries; a++ {
			*searched += e.costs.StealAttempt
			w.stealAttempts++
			v := plan.Draw(w.rng)
			ev.Type, ev.Victim = trace.EvStealAttempt, int32(v.Logical)
			e.stealEvent(w, ev, nil)
			var t *Task
			if v.Migration {
				t, _ = d.entities[v.Physical].queues.StealMigration(plan.MinDepth)
			}
			if t == nil && v.Primary {
				t, _ = d.entities[v.Physical].queues.StealPrimary(plan.MinDepth)
			}
			if t != nil {
				w.steals++
				ev.Type = trace.EvStealSuccess
				e.stealEvent(w, ev, t)
				t.inMigrationQueue = false
				t.rng = d.Rebase(t.rng, plan.Self)
				return t, true
			}
		}
		ev.Type, ev.Victim = trace.EvStealFail, 0
		e.stealEvent(w, ev, nil)
		return nil, false
	}
	// Conventional random work stealing.
	tries := sched.UniformTries(d.N)
	if tries <= 0 {
		return nil, false
	}
	ev := trace.Event{Self: int32(ent.idx)}
	for a := 0; a < tries; a++ {
		*searched += e.costs.StealAttempt
		w.stealAttempts++
		v := sched.UniformVictim(w.rng, d.N, ent.idx)
		ev.Type, ev.Victim = trace.EvStealAttempt, int32(v)
		e.stealEvent(w, ev, nil)
		if t, ok := d.entities[v].queues.StealAny(); ok {
			w.steals++
			ev.Type = trace.EvStealSuccess
			e.stealEvent(w, ev, t)
			return t, true
		}
	}
	ev.Type, ev.Victim = trace.EvStealFail, 0
	e.stealEvent(w, ev, nil)
	return nil, false
}

// startTask begins executing task t on worker w, charging `searched` time
// as idle-search cost and `oh` as scheduling overhead.
func (e *Engine) startTask(w *worker, t *Task, ent *entity, searched, oh float64) {
	ts := e.now + searched + oh
	if w.idle {
		w.idleTime += (ts - w.idleStart) - oh
		w.idle = false
		w.backoff = 0
	} else {
		w.idleTime += searched
	}
	w.overheadTime += oh
	t.state = taskRunning
	t.execWorker = w.id
	if ent != nil {
		t.ent = ent
		if t.group != nil {
			ent.lastGroup = t.group
		}
	}
	w.current = t
	e.events.schedule(w, ts)
}

// goIdle records the transition to idleness and schedules a backoff poll.
func (e *Engine) goIdle(w *worker, searched float64) {
	if !w.idle {
		w.idle = true
		w.idleStart = e.now
	}
	if w.backoff == 0 {
		w.backoff = e.costs.IdlePoll
	} else if w.backoff < e.costs.IdlePoll*maxBackoffFactor {
		w.backoff *= 2
	}
	e.events.schedule(w, e.now+searched+w.backoff)
}
