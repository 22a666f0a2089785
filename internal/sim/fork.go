package sim

import (
	"github.com/parlab/adws/internal/sched"
	"github.com/parlab/adws/internal/topology"
	"github.com/parlab/adws/internal/trace"
)

// traceBoundary mirrors the runtime's multi-level boundary events.
func (e *Engine) traceBoundary(worker int, kind int32, d *domain, level int) {
	tr := e.cfg.Tracer
	if tr == nil {
		return
	}
	var id int64
	if d != nil {
		id = int64(d.id)
	}
	tr.Record(worker, trace.Event{Type: trace.EvBoundary, Time: e.vt(),
		Victim: kind, Depth: int32(level), Task: id})
}

// fork executes a task group step of task t on worker w: it applies the
// multi-level tie/flatten decisions, spawns the children under the
// domain's policy, and either suspends t or starts an inline child.
func (e *Engine) fork(w *worker, t *Task, spec *GroupSpec) {
	if len(spec.Children) == 0 {
		e.events.schedule(w, e.now)
		return
	}
	if e.cfg.Mode == SB {
		e.forkSB(w, t, spec)
		return
	}

	ag := &activeGroup{spec: spec, parent: t, remaining: len(spec.Children)}
	dom := t.dom
	parentRange := t.rng
	parentEnt := t.ent
	fresh := false
	var oh float64

	if e.cfg.Mode.IsMultiLevel() && !dom.flattened {
		if nd, ent := e.mlDecide(w, t, spec, ag); nd != nil {
			dom, parentRange, parentEnt, fresh = nd, nd.FullRange(), ent, true
			oh += e.costs.TieOverhead
		}
	}

	var inline *Task
	if dom.adws {
		inline = e.spawnADWS(w, t, ag, dom, parentRange, parentEnt, fresh, &oh)
	} else {
		inline = e.spawnWS(w, t, ag, dom, parentEnt, &oh)
	}

	w.overheadTime += oh
	if tr := e.cfg.Tracer; tr != nil {
		tr.Record(w.id, trace.Event{Type: trace.EvWaitEnter, Time: e.vt(),
			Task: e.ordinal(t), Depth: int32(t.depth)})
	}
	if inline != nil {
		inline.execWorker = w.id
		w.current = inline
		if inline.group != nil && inline.ent != nil {
			inline.ent.lastGroup = inline.group
		}
	} else {
		w.current = nil
	}
	e.wakeDomain(dom)
	e.events.schedule(w, e.now+oh)
}

// spawnADWS implements deterministic task mapping (paper Fig. 7): split the
// parent range by work hints, migrate type-(1) children, keep type-(3)
// children locally, and return the type-(2) child for immediate execution.
func (e *Engine) spawnADWS(w *worker, t *Task, ag *activeGroup, dom *domain, parentRange sched.Range, parentEnt *entity, fresh bool, oh *float64) *Task {
	spec := ag.spec
	iExec := dom.LogicalOf(parentEnt.idx)
	pl := sched.PlaceGroup(t.group, t.depth, t.inMigrationQueue, parentRange, fresh)
	ag.node = pl.Node

	equal := e.cfg.IgnoreWorkHints || spec.Work <= 0
	total := spec.Work
	if equal {
		total = float64(len(spec.Children))
	}
	// Only a cross-worker group splits its range; the children of a
	// worker-local one inherit it (sched.GroupPlacement.Local).
	var split *sched.Splitter
	if !pl.Local() {
		split = sched.NewSplitter(parentRange, total)
	}

	var inline *Task
	for _, cs := range spec.Children {
		rng, kind := parentRange, sched.KindLocal
		if !pl.Local() {
			hint := cs.Work
			if equal {
				hint = 1
			}
			rng = split.NextChild(hint)
			kind = sched.Classify(rng, iExec)
		}
		child := e.newTask(cs.Body)
		child.dom = dom
		child.rng = rng
		child.group = pl.ChildGroup
		child.depth = pl.ChildDepth
		child.parentGroup = ag
		child.crossWorker = pl.CrossWorkerChild(rng)
		child.sbSize = cs.Size
		*oh += e.costs.SpawnOverhead
		switch kind {
		case sched.KindMigrate:
			ent := dom.entities[dom.Physical(rng.Owner())]
			child.ent = ent
			child.inMigrationQueue = true
			if tr := e.cfg.Tracer; tr != nil {
				tr.Record(w.id, trace.Event{Type: trace.EvMigration, Time: e.vt(),
					Self: int32(iExec), Victim: int32(rng.Owner()),
					Task: e.ordinal(child), Depth: int32(pl.ChildDepth),
					RangeLo: rng.X, RangeHi: rng.Y})
			}
			ent.queues.PushMigration(pl.ChildDepth, child)
			*oh += e.costs.MigrateOverhead
			w.migrationsOut++
			if aw := e.actingWorker(ent); aw >= 0 {
				e.wake(e.workers[aw], e.now)
			}
		case sched.KindExecute:
			child.ent = parentEnt
			inline = child
		case sched.KindLocal:
			child.ent = parentEnt
			child.inMigrationQueue = pl.LocalInMigration
			if child.inMigrationQueue {
				parentEnt.queues.PushMigration(pl.ChildDepth, child)
			} else {
				parentEnt.queues.PushPrimary(pl.ChildDepth, child)
			}
		}
	}
	return inline
}

// spawnWS implements conventional work-first random work stealing: the
// first child is executed immediately and the rest are pushed onto the
// spawning entity's deque so that the owner pops them in declaration order
// while thieves steal the oldest.
func (e *Engine) spawnWS(w *worker, t *Task, ag *activeGroup, dom *domain, parentEnt *entity, oh *float64) *Task {
	spec := ag.spec
	var inline *Task
	tasks := make([]*Task, len(spec.Children))
	for k, cs := range spec.Children {
		child := e.newTask(cs.Body)
		child.dom = dom
		child.parentGroup = ag
		child.ent = parentEnt
		child.sbSize = cs.Size
		tasks[k] = child
		*oh += e.costs.SpawnOverhead
	}
	inline = tasks[0]
	for k := len(tasks) - 1; k >= 1; k-- {
		parentEnt.queues.PushPrimary(0, tasks[k])
	}
	return inline
}

// mlDecide applies the multi-level scheduling decisions for a task group
// (sched.DecideML: Fig. 13's EXECUTETASKGROUP composed with Fig. 15's
// flattening). It returns the new domain and the parent's entity in it,
// or nils to stay.
func (e *Engine) mlDecide(w *worker, t *Task, spec *GroupSpec, ag *activeGroup) (*domain, *entity) {
	if spec.Size <= 0 {
		return nil, nil
	}
	dom := t.dom
	var span []*topology.Cache
	if dom.adws && dom.caches != nil {
		span = dom.FlattenSpan(t.rng, dom.caches)
	}
	// The group may be tied to the cache w leads, unless one already is.
	var led *mlCache
	var tieTo *topology.Cache
	if c := e.lead.Leads(w.id); c != nil {
		if led = e.mlCaches[c.Level][c.Index]; led.tied == nil {
			tieTo = c
		}
	}
	dec := sched.DecideML(e.machine, w.id, spec.Size, span, tieTo)
	var d *domain
	switch dec.Choice {
	case sched.MLTie:
		d = e.tie(w, led, dec, ag)
	case sched.MLFlatten:
		d = e.flatten(w, dec, ag)
	default:
		return nil, nil
	}
	return d, d.entities[dec.Pos]
}

// tie ties ag to cache c (Fig. 13): the leading worker descends to lead
// the child cache on its path, and a fresh domain over c's children
// schedules ag's children.
func (e *Engine) tie(w *worker, c *mlCache, dec sched.MLDecision, ag *activeGroup) *domain {
	e.ties++
	c.tied = ag
	ag.tiedTo = c
	d := e.newCacheDomain(dec.Caches, dec.Pos)
	c.childDomain = d
	e.lead.Lead(w.id, dec.Caches[dec.Pos])
	e.traceBoundary(w.id, trace.BoundaryTie, d, c.cache.Level)
	return d
}

// untie restores cache c when its tied group completes (Fig. 13 line 58):
// the worker that will execute the continuation becomes c's leader again.
func (e *Engine) untie(ag *activeGroup) {
	c := ag.tiedTo
	ag.tiedTo = nil
	c.tied = nil
	tornDown := c.childDomain
	if c.childDomain != nil {
		c.childDomain.closed = true
		c.childDomain = nil
	}
	wid := ag.parent.execWorker
	e.lead.Lead(wid, c.cache)
	e.traceBoundary(wid, trace.BoundaryUntie, tornDown, c.cache.Level)
}

// flatten creates a flattened leaf-level domain over the given leaf caches
// (paper Fig. 15). Every covered worker participates directly; leadership
// is untouched, so the spanned caches resume their roles when the
// flattened group completes.
func (e *Engine) flatten(w *worker, dec sched.MLDecision, ag *activeGroup) *domain {
	e.flattens++
	d := e.newDomain(len(dec.Caches), dec.Pos)
	d.level = e.machine.MaxLevel()
	d.flattened = true
	for i, ch := range dec.Caches {
		wid := ch.FirstWorker()
		d.entities[i] = &entity{dom: d, idx: i, worker: wid}
		e.workers[wid].fdEnts = append(e.workers[wid].fdEnts, d.entities[i])
	}
	ag.flattened = d
	e.traceBoundary(w.id, trace.BoundaryFlatten, d, d.level)
	return d
}

// unflatten tears down a flattened domain when its group completes.
func (e *Engine) unflatten(ag *activeGroup) {
	d := ag.flattened
	ag.flattened = nil
	d.closed = true
	e.traceBoundary(ag.parent.execWorker, trace.BoundaryUnflatten, d, d.level)
	for _, ent := range d.entities {
		w := e.workers[ent.worker]
		for i, fe := range w.fdEnts {
			if fe == ent {
				w.fdEnts = append(w.fdEnts[:i], w.fdEnts[i+1:]...)
				break
			}
		}
	}
}

// wakeDomain wakes the acting workers of every entity in d so newly pushed
// work is noticed promptly.
func (e *Engine) wakeDomain(d *domain) {
	for _, ent := range d.entities {
		if aw := e.actingWorker(ent); aw >= 0 {
			e.wake(e.workers[aw], e.now)
		}
	}
}
