package runtime

import (
	"github.com/parlab/adws/internal/sched"
	"github.com/parlab/adws/internal/trace"
)

// GroupHint carries the programmer hints of the paper's Fig. 2b: the total
// relative work of the group (w_all) and its working-set size in bytes.
type GroupHint struct {
	// Work is the total work hint (w_all). Zero means unknown: the number
	// of children is not known when the first one is spawned, so ADWS
	// cannot split equally and the first child receives the whole range
	// (DESIGN.md, deviations).
	Work float64
	// Size is the working-set size hint in bytes for multi-level
	// scheduling; zero means unknown (the group is never tied/flattened).
	Size int64
}

// Group opens a task group. Spawn children with per-child work hints, then
// Wait for all of them; a task may open several groups sequentially but
// they must not overlap.
func (c *Ctx) Group(h GroupHint) *TaskGroup {
	p := c.w.pool
	tg := &TaskGroup{g: taskGroup{pool: p, parent: c}}
	g := &tg.g
	g.waiter.Store(-1)

	dom := c.cur.ent.dom
	rng := c.cur.rng
	if p.policy.isML() && !dom.flattened {
		if nd, nent := p.mlDecide(c.w, c.cur, h.Size, g); nd != nil {
			dom, rng, g.ent = nd, nd.FullRange(), nent
			g.fresh = true
		}
	}
	g.dom = dom

	if dom.adws {
		g.GroupPlacement = sched.PlaceGroup(c.cur.group, c.cur.depth, c.cur.inMigration, rng, g.fresh)
		if g.Local() {
			// Work-first path: the task already runs on its range's owner.
			g.ent = c.cur.ent
			return tg
		}
		g.splitter = sched.NewSplitter(rng, h.Work)
	}
	if !g.fresh {
		g.ent = c.entityFor(dom, rng)
	}
	g.iExec = dom.LogicalOf(g.ent.idx)
	return tg
}

// entityFor resolves the entity a task executes on behalf of.
func (c *Ctx) entityFor(dom *domain, rng sched.Range) *entity {
	if dom.adws {
		return dom.entities[dom.Physical(rng.Owner())]
	}
	// WS domains have no ranges: the group stays on the task's entity,
	// which lies in dom (a group only changes domain through mlDecide).
	return c.cur.ent
}

// TaskGroup is the public handle of a live task group. It holds the group
// by value, so opening a group is one allocation.
type TaskGroup struct {
	g taskGroup
}

// Spawn adds a child task with the given work hint (w1..wN in Fig. 2b).
// Spawn panics if the group was already waited: a TaskGroup is finished by
// its Wait and cannot be reused (open a new group instead).
func (tg *TaskGroup) Spawn(work float64, fn func(*Ctx)) {
	g := &tg.g
	if g.waited {
		panic("runtime: Spawn on a task group that was already waited; open a new group with Ctx.Group")
	}
	g.remaining.Add(1)
	t := &task{fn: fn, pg: g, job: g.parent.cur.job,
		sdepth: g.parent.cur.sdepth + 1}
	if g.pool.tracer != nil || g.pool.flight.Wants(trace.EvTaskBegin, t.sdepth) {
		t.seq = g.pool.taskSeq.Add(1)
	}

	if !g.dom.adws {
		// Conventional help-first WS: push to the spawning entity's queue;
		// the owner pops LIFO, thieves steal the oldest.
		t.ent = g.ent
		g.ent.push(g.parent.w.id, t, false)
		g.pool.wakeFor(g.ent, t.job)
		return
	}

	t.group = g.ChildGroup
	t.depth = g.ChildDepth
	// Children of a worker-local group inherit its range and stay local
	// (sched.GroupPlacement.Local); only cross-worker groups split.
	t.rng = g.parent.cur.rng
	kind := sched.KindLocal
	if !g.Local() {
		t.rng = g.splitter.NextChild(work)
		t.crossWorker = g.CrossWorkerChild(t.rng)
		kind = sched.Classify(t.rng, g.iExec)
	}
	switch kind {
	case sched.KindMigrate:
		ent := g.dom.entities[g.dom.Physical(t.rng.Owner())]
		t.ent = ent
		t.inMigration = true
		if w := g.parent.w; w.wantEv(trace.EvMigration, t.sdepth) {
			w.emit(trace.Event{Type: trace.EvMigration, Time: now(),
				Self: int32(g.iExec), Victim: int32(t.rng.Owner()), Task: t.seq,
				Job: t.jobID(), Depth: int32(t.depth), RangeLo: t.rng.X, RangeHi: t.rng.Y}, t.sdepth)
		}
		ent.push(g.parent.w.id, t, true)
		g.parent.w.stats.migrations.Add(1)
		if t.job != nil {
			t.job.migrations.Add(1)
		}
		g.pool.wakeFor(ent, t.job)
	case sched.KindExecute:
		// The unique cross-worker child owned by the spawning entity: the
		// paper executes it immediately in the work-first manner; with
		// blocking waits we defer it to the head of Wait (DESIGN.md).
		t.ent = g.ent
		g.execChild = t
	case sched.KindLocal:
		t.ent = g.ent
		t.inMigration = g.LocalInMigration
		g.ent.push(g.parent.w.id, t, t.inMigration)
		g.pool.wakeFor(g.ent, t.job)
	}
}

// Wait blocks until every spawned child (and its descendants) completed.
// The calling worker executes pending tasks while it waits, but only tasks
// at least as deep as the group's children — its own queued ones first,
// then what the steal plan reaches at that depth (findTask): work of an
// enclosing group stays queued, so the wait returns as soon as the group is
// done and the continuation is never buried under an unrelated subtree.
// Wait finishes the group: calling Wait twice, or Spawn after Wait, panics.
func (tg *TaskGroup) Wait() {
	g := &tg.g
	if g.waited {
		panic("runtime: Wait called twice on the same task group")
	}
	g.waited = true
	c := g.parent
	w := c.w
	p := g.pool

	if w.wantEv(trace.EvWaitEnter, c.cur.sdepth) {
		w.emit(trace.Event{Type: trace.EvWaitEnter, Time: now(),
			Task: c.cur.seq, Job: c.cur.jobID(), Depth: int32(g.ChildDepth)}, c.cur.sdepth)
	}

	if ec := g.execChild; ec != nil {
		g.execChild = nil
		if ec.group != nil {
			g.ent.lastGroup.Store(ec.group)
		}
		w.execute(ec, false)
	}

	w.schedule(g)
	// One stamp closes the wait: its idle stretch, the wake-to-run span of
	// a wakeup by the group's last completion (the continuation is the work
	// that wake delivered), and the exit event.
	ts := w.markIdleEnd(true)
	if w.wantEv(trace.EvWaitExit, c.cur.sdepth) {
		if ts == 0 {
			ts = now()
		}
		w.emit(trace.Event{Type: trace.EvWaitExit, Time: ts,
			Task: c.cur.seq, Job: c.cur.jobID(), Depth: int32(g.ChildDepth)}, c.cur.sdepth)
	}

	if g.Node != nil {
		g.Node.Finish()
	}
	if g.tiedTo != nil || g.flattened != nil {
		p.groupTeardown(g, w)
	}
}
