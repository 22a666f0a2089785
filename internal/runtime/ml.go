package runtime

import (
	"github.com/parlab/adws/internal/sched"
	"github.com/parlab/adws/internal/topology"
	"github.com/parlab/adws/internal/trace"
)

// traceBoundary records a multi-level boundary crossing (tie/flatten and
// their teardowns) for worker w over domain d at cache level `level`.
func (p *Pool) traceBoundary(w *worker, kind int32, d *domain, level int) {
	if !w.wantEv(trace.EvBoundary, int32(level)) {
		return
	}
	var id int64
	if d != nil {
		id = d.id
	}
	w.emit(trace.Event{Type: trace.EvBoundary, Time: now(),
		Victim: kind, Depth: int32(level), Task: id}, int32(level))
}

// initTopology builds the root domain and, for multi-level policies, the
// per-cache state with the initial bottom-up leader election (§4.2). It
// runs before the workers start, so the ml structures are still private.
//
//adws:requires(ml)
func (p *Pool) initTopology() {
	m := p.machine

	p.ml.caches = make([][]*mlCache, m.NumLevels())
	for level := 1; level < m.NumLevels(); level++ {
		row := m.LevelCaches(level)
		p.ml.caches[level] = make([]*mlCache, len(row))
		for i, c := range row {
			p.ml.caches[level][i] = &mlCache{cache: c}
		}
	}

	if !p.policy.isML() {
		d := p.newDomain(m.NumWorkers(), 0)
		d.level = m.MaxLevel()
		for w := range d.entities {
			d.entities[w] = newEntity(d, w, w)
			p.workers[w].self = d.entities[w : w+1 : w+1]
		}
		p.rootDom = d
		return
	}
	p.ml.lead = sched.ElectLeaders(m)
	p.rootDom = p.newCacheDomain(m.LevelCaches(1), 0)
}

func (p *Pool) newDomain(n, offset int) *domain {
	return &domain{Axis: sched.Axis{N: n, Offset: offset}, id: p.domSeq.Add(1),
		adws: p.policy.isADWS(), entities: make([]*entity, n)}
}

// newCacheDomain builds a domain whose entities stand for the caches of
// row, acted for by each cache's current leader.
//
//adws:requires(ml)
func (p *Pool) newCacheDomain(row []*topology.Cache, offset int) *domain {
	d := p.newDomain(len(row), offset)
	d.caches = row
	d.level = row[0].Level
	for i, c := range row {
		mc := p.ml.caches[c.Level][c.Index]
		d.entities[i] = newEntity(d, i, -1)
		mc.entity = d.entities[i]
	}
	return d
}

// mlDecide applies the tie/flatten decisions of Fig. 13 + Fig. 15
// (sched.DecideML) when a task group with a size hint is created. It
// returns the new domain and the parent's entity in it, or nils to stay.
func (p *Pool) mlDecide(w *worker, cur *task, size int64, g *taskGroup) (*domain, *entity) {
	if size <= 0 {
		return nil, nil
	}
	p.ml.Lock()
	defer p.ml.Unlock()

	dom := cur.ent.dom
	var span []*topology.Cache
	if dom.adws && dom.caches != nil {
		span = dom.FlattenSpan(cur.rng, dom.caches)
	}
	// The group may be tied to the cache w leads, unless one already is.
	var led *mlCache
	var tieTo *topology.Cache
	if c := p.ml.lead.Leads(w.id); c != nil {
		if led = p.ml.caches[c.Level][c.Index]; led.tied == nil {
			tieTo = c
		}
	}
	dec := sched.DecideML(p.machine, w.id, size, span, tieTo)
	var d *domain
	switch dec.Choice {
	case sched.MLTie:
		d = p.tieLocked(w, led, dec, g)
	case sched.MLFlatten:
		d = p.flattenLocked(w, dec, g)
	default:
		return nil, nil
	}
	return d, d.entities[dec.Pos]
}

// tieLocked ties g to cache c; the caller holds p.ml.
//
//adws:requires(ml)
func (p *Pool) tieLocked(w *worker, c *mlCache, dec sched.MLDecision, g *taskGroup) *domain {
	c.tied = g
	g.tiedTo = c
	d := p.newCacheDomain(dec.Caches, dec.Pos)
	c.childDomain = d
	p.ml.lead.Lead(w.id, dec.Caches[dec.Pos])
	p.traceBoundary(w, trace.BoundaryTie, d, c.cache.Level)
	return d
}

// flattenLocked creates a flattened worker-level domain over leaf caches;
// the caller holds p.ml.
func (p *Pool) flattenLocked(w *worker, dec sched.MLDecision, g *taskGroup) *domain {
	d := p.newDomain(len(dec.Caches), dec.Pos)
	d.level = p.machine.MaxLevel()
	d.flattened = true
	for i, ch := range dec.Caches {
		d.entities[i] = newEntity(d, i, ch.FirstWorker())
	}
	g.flattened = d
	// Publish only after the domain is fully constructed: workers read
	// d.entities/d.Axis without holding p.ml once an entity appears in
	// their fdEnts (the per-worker fdMu gives the happens-before edge).
	for _, ent := range d.entities {
		ww := p.workers[ent.workerID]
		ww.fdMu.Lock()
		ww.fdEnts = append(ww.fdEnts, ent)
		ww.fdMu.Unlock()
	}
	// Wake the parked participants so they pick up their flattened
	// entities; non-members need not stir.
	if p.nparked.Load() != 0 {
		for _, ent := range d.entities {
			if ent.workerID != w.id {
				p.tryWake(p.workers[ent.workerID])
			}
		}
	}
	p.traceBoundary(w, trace.BoundaryFlatten, d, d.level)
	return d
}

// groupTeardown undoes a tie or flattening when the group's Wait completes
// on worker w (the worker executing the continuation becomes the leader of
// the untied cache, Fig. 13 line 58).
func (p *Pool) groupTeardown(g *taskGroup, w *worker) {
	p.ml.Lock()
	defer p.ml.Unlock()
	if c := g.tiedTo; c != nil {
		g.tiedTo = nil
		c.tied = nil
		if c.childDomain != nil {
			p.traceBoundary(w, trace.BoundaryUntie, c.childDomain, c.cache.Level)
			c.childDomain.closed.Store(true)
			c.childDomain = nil
		}
		p.ml.lead.Lead(w.id, c.cache)
	}
	if d := g.flattened; d != nil {
		g.flattened = nil
		p.traceBoundary(w, trace.BoundaryUnflatten, d, d.level)
		d.closed.Store(true)
		// Participants drop their entities lazily in candidates().
	}
}
