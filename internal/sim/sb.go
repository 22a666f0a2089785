package sim

import (
	"github.com/parlab/adws/internal/sched"
	"github.com/parlab/adws/internal/topology"
)

// Space-bounded scheduler (Simhadri et al., ported conceptually; the paper
// evaluates the "SB-D" distributed-queue variant with σ=0.5, μ=0.2).
//
// Every task carries a working-set size. When a task first executes, it is
// anchored: starting from the cache its parent was anchored under, it
// descends to child caches as long as its size is at most σ times the
// child-cache capacity, reserving capacity at each cache it anchors under
// (unless smaller than μ times the capacity, in which case it is too small
// to matter). A cache accepts anchored tasks only while their total
// reserved size fits its capacity; tasks that do not fit anywhere wait
// until a reservation is released. A task anchored under cache C executes
// only on workers sharing C. Unlike multi-level scheduling, several tasks
// can be anchored to one cache simultaneously — which keeps cores busier
// but reduces per-task cache reuse (§6.3's observed tradeoff).

// sbReservation is one capacity reservation held by a task.
type sbReservation struct {
	level, index int
	bytes        int64
}

// sbCacheState is the per-cache state of the SB scheduler.
type sbCacheState struct {
	committed int64
	// runq holds anchored tasks waiting for a worker under this cache.
	runq sched.Deque[*Task]
	// waitq holds tasks that could not reserve capacity at this cache's
	// children; they are retried when a reservation is released.
	waitq []*Task
}

type sbState struct {
	caches [][]*sbCacheState
}

func (e *Engine) initSB() {
	st := &sbState{caches: make([][]*sbCacheState, e.machine.NumLevels())}
	for level := 0; level < e.machine.NumLevels(); level++ {
		row := e.machine.LevelCaches(level)
		st.caches[level] = make([]*sbCacheState, len(row))
		for i := range row {
			st.caches[level][i] = &sbCacheState{}
		}
	}
	e.sb = st
}

func (e *Engine) sbOf(c *topology.Cache) *sbCacheState {
	return e.sb.caches[c.Level][c.Index]
}

func (e *Engine) seedSBRoot(t *Task) {
	t.sbCache = e.machine.Root()
	t.sbAnchored = true
	e.workers[0].sbQueue.PushPrimary(0, t)
	e.wake(e.workers[0], e.now)
}

// forkSB spawns a task group under the space-bounded scheduler: children
// inherit the parent's anchor cache, sizes default to work-proportional
// shares of the group size, the first child runs inline (work-first) and
// the rest go to the worker's deque.
func (e *Engine) forkSB(w *worker, t *Task, spec *GroupSpec) {
	ag := &activeGroup{spec: spec, parent: t, remaining: len(spec.Children)}
	var oh float64
	var totalWork float64
	for _, cs := range spec.Children {
		totalWork += cs.Work
	}
	tasks := make([]*Task, len(spec.Children))
	for k, cs := range spec.Children {
		child := e.newTask(cs.Body, cs.Work)
		child.parentGroup = ag
		child.sbCache = t.sbCache
		child.sbSize = cs.Size
		if child.sbSize == 0 && spec.Size > 0 {
			if totalWork > 0 {
				child.sbSize = int64(float64(spec.Size) * cs.Work / totalWork)
			} else {
				child.sbSize = spec.Size / int64(len(spec.Children))
			}
		}
		tasks[k] = child
		oh += e.costs.SpawnOverhead
	}
	for k := len(tasks) - 1; k >= 1; k-- {
		w.sbQueue.PushPrimary(0, tasks[k])
	}
	t.state = taskWaiting
	t.waitingOn = ag
	w.overheadTime += oh

	// Work-first: try to run the first child now; it may anchor elsewhere
	// or have to wait for capacity.
	inline := tasks[0]
	if e.sbPlace(w, inline) {
		inline.state = taskRunning
		inline.execWorker = w.id
		w.current = inline
	} else {
		w.current = nil
	}
	e.sbWakeAll()
	e.events.schedule(w, e.now+oh)
}

// sbPlace runs the anchoring decision for task t on behalf of worker w.
// It returns true when w itself should execute t now. Otherwise t has been
// parked on a run queue of a cache not containing w, or on a wait queue
// until capacity frees, and w should look for other work.
func (e *Engine) sbPlace(w *worker, t *Task) bool {
	if !t.sbAnchored {
		if !e.sbAnchor(w, t) {
			return false // parked on a wait queue
		}
	}
	if t.sbCache.ContainsWorker(w.id) {
		return true
	}
	e.sbOf(t.sbCache).runq.PushTop(t)
	e.sbWakeUnder(t.sbCache)
	return false
}

// sbAnchor descends t from its inherited anchor toward the leaves while it
// fits under σ, reserving capacity. Returns false if t was parked waiting
// for capacity.
func (e *Engine) sbAnchor(w *worker, t *Task) bool {
	sigma, mu := e.cfg.SBSigma, e.cfg.SBMu
	for !t.sbCache.IsLeaf() && t.sbSize > 0 {
		children := t.sbCache.Children()
		capC := children[0].Capacity
		if float64(t.sbSize) > sigma*float64(capC) {
			break // does not fit one level deeper: anchored here
		}
		reserve := float64(t.sbSize) > mu*float64(capC)
		// Prefer the child on w's path, then the other children in order.
		var pick *topology.Cache
		start := 0
		if t.sbCache.ContainsWorker(w.id) {
			onPath := e.machine.CacheOfWorkerAtLevel(w.id, t.sbCache.Level+1)
			start = onPath.Index - children[0].Index
		}
		for k := 0; k < len(children); k++ {
			c := children[(start+k)%len(children)]
			if !reserve || e.sbOf(c).committed+t.sbSize <= c.Capacity {
				pick = c
				break
			}
		}
		if pick == nil {
			if children[0].IsLeaf() {
				// Private caches have a single worker each; descending is
				// a locality refinement, not a scheduling constraint.
				// Rather than delaying the task, leave it anchored at the
				// shared cache (the paper's SB-D port also relaxes the
				// strict variant to avoid contention, §6.1).
				break
			}
			// Every shared child is full: wait at the current cache until
			// a reservation under it is released.
			e.sbParks++
			e.sbOf(t.sbCache).waitq = append(e.sbOf(t.sbCache).waitq, t)
			return false
		}
		if reserve {
			e.sbOf(pick).committed += t.sbSize
			t.sbRes = append(t.sbRes, sbReservation{level: pick.Level, index: pick.Index, bytes: t.sbSize})
		}
		t.sbCache = pick
	}
	t.sbAnchored = true
	return true
}

// sbRelease frees t's reservations and retries tasks waiting for capacity.
func (e *Engine) sbRelease(t *Task) {
	for _, r := range t.sbRes {
		e.sb.caches[r.level][r.index].committed -= r.bytes
		// Waiters park at the parent of the cache whose children were full.
		c := e.machine.CacheAt(r.level, r.index)
		parent := c.Parent()
		if parent == nil {
			continue
		}
		ps := e.sbOf(parent)
		if len(ps.waitq) == 0 {
			continue
		}
		var still []*Task
		for _, wt := range ps.waitq {
			if e.sbRetryAnchor(wt) {
				e.sbOf(wt.sbCache).runq.PushTop(wt)
				e.sbWakeUnder(wt.sbCache)
			} else {
				still = append(still, wt)
			}
		}
		ps.waitq = still
	}
	t.sbRes = nil
}

// sbRetryAnchor re-runs the anchoring descent for a waiting task without a
// worker preference. Returns true if the task is now anchored and runnable.
func (e *Engine) sbRetryAnchor(t *Task) bool {
	sigma, mu := e.cfg.SBSigma, e.cfg.SBMu
	progressed := false
	for !t.sbCache.IsLeaf() && t.sbSize > 0 {
		children := t.sbCache.Children()
		capC := children[0].Capacity
		if float64(t.sbSize) > sigma*float64(capC) {
			break
		}
		reserve := float64(t.sbSize) > mu*float64(capC)
		// Pick the child with the most free capacity so retried waiters
		// spread out instead of funnelling through the lowest index.
		var pick *topology.Cache
		var best int64 = -1
		for _, c := range children {
			free := c.Capacity - e.sbOf(c).committed
			if (!reserve || free >= t.sbSize) && free > best {
				pick = c
				best = free
			}
		}
		if pick == nil {
			if children[0].IsLeaf() {
				break
			}
			return false
		}
		if reserve {
			e.sbOf(pick).committed += t.sbSize
			t.sbRes = append(t.sbRes, sbReservation{level: pick.Level, index: pick.Index, bytes: t.sbSize})
		}
		t.sbCache = pick
		progressed = true
	}
	t.sbAnchored = true
	return progressed || true
}

// findWorkSB is the idle path of the SB scheduler: local deque, then the
// run queues of anchored tasks on the worker's cache path (deepest first),
// then random stealing of tasks whose anchor contains this worker.
func (e *Engine) findWorkSB(w *worker) {
	// Local deque (may contain tasks that anchor elsewhere; keep popping).
	for {
		t, ok := w.sbQueue.PopLocal()
		if !ok {
			break
		}
		if e.sbPlace(w, t) {
			e.startTask(w, t, nil, 0, 0)
			return
		}
	}
	// Anchored run queues on the path, deepest first.
	for c := e.machine.LeafOf(w.id); c != nil; c = c.Parent() {
		if t, ok := e.sbOf(c).runq.PopBottom(); ok {
			if e.sbPlace(w, t) {
				e.startTask(w, t, nil, 0, 0)
				return
			}
		}
	}
	// Steal: random victims; only tasks whose anchor cache contains w are
	// eligible. The whole victim deque is scanned for an eligible task
	// (not just the steal end), since anchored and unanchored tasks mix.
	var searched float64
	n := len(e.workers)
	tries := 2 * sched.MaxStealTries
	if tries > n-1 {
		tries = n - 1
	}
	eligible := func(t *Task) bool { return t.sbCache.ContainsWorker(w.id) }
	for a := 0; a < tries; a++ {
		searched += e.costs.StealAttempt
		w.stealAttempts++
		vic := e.workers[sched.UniformVictim(w.rng, n, w.id)]
		if t, ok := vic.sbQueue.StealPrimaryWhere(0, eligible); ok {
			w.steals++
			if e.sbPlace(w, t) {
				e.startTask(w, t, nil, searched, e.costs.StealSuccess)
				return
			}
		}
	}
	e.goIdle(w, searched)
}

// sbWakeUnder wakes the idle workers under cache c.
func (e *Engine) sbWakeUnder(c *topology.Cache) {
	for wid := c.FirstWorker(); wid < c.FirstWorker()+c.WorkerCount(); wid++ {
		e.wake(e.workers[wid], e.now)
	}
}

// sbWakeAll wakes every idle worker (cheap conservative wake after spawns).
func (e *Engine) sbWakeAll() {
	for _, w := range e.workers {
		e.wake(w, e.now)
	}
}
