package sim

import (
	"fmt"

	"github.com/parlab/adws/internal/sched"
	"github.com/parlab/adws/internal/topology"
	"github.com/parlab/adws/internal/trace"
)

// Mode selects the scheduler under simulation.
type Mode int

const (
	// SLWS is conventional single-level random work stealing (the paper's
	// SL-WS baseline; Cilk Plus behaves the same, §6.3).
	SLWS Mode = iota
	// SLADWS is single-level almost deterministic work stealing (§3).
	SLADWS
	// MLWS is multi-level scheduling with random work stealing at every
	// cache level (§4).
	MLWS
	// MLADWS is multi-level ADWS with cache-hierarchy flattening (§5).
	MLADWS
	// SB is the space-bounded scheduler baseline (Simhadri et al.),
	// with σ=0.5 and μ=0.2 (§6.1).
	SB
)

func (m Mode) String() string {
	switch m {
	case SLWS:
		return "SL-WS"
	case SLADWS:
		return "SL-ADWS"
	case MLWS:
		return "ML-WS"
	case MLADWS:
		return "ML-ADWS"
	case SB:
		return "SB"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Modes lists all simulated schedulers in the paper's presentation order.
var Modes = []Mode{SLWS, SLADWS, MLWS, MLADWS, SB}

// IsADWS reports whether the mode uses ADWS deterministic task mapping.
func (m Mode) IsADWS() bool { return m == SLADWS || m == MLADWS }

// IsMultiLevel reports whether the mode uses multi-level scheduling.
func (m Mode) IsMultiLevel() bool { return m == MLWS || m == MLADWS }

// Config parameterizes one simulation run.
type Config struct {
	Machine *topology.Machine
	Mode    Mode
	Costs   CostModel
	// Seed drives victim selection (and nothing else).
	Seed uint64
	// NUMA selects the page placement policy (default Interleave).
	NUMA NUMAPolicy
	// IgnoreWorkHints makes ADWS assume equal work for every child (the
	// no-work-hints configuration of §6.4). Size hints are still honoured.
	IgnoreWorkHints bool
	// SBSigma and SBMu override the space-bounded scheduler parameters
	// (defaults 0.5 and 0.2).
	SBSigma, SBMu float64
	// TraceExec, if set, is called when a task starts executing, with the
	// task's per-run creation ordinal and the executing worker. Used to
	// verify scheduling determinism across repetitions.
	TraceExec func(taskOrdinal int64, worker int)
	// Tracer, if non-nil, receives the same scheduler event schema the
	// real runtime emits (internal/trace), with virtual timestamps scaled
	// by 1000, so simulated and real runs of one program are diffable.
	Tracer *trace.Tracer
}

// eventQueue is an indexed binary min-heap of the workers that have a
// pending event, ordered by (eventTime, eventGseq). Each worker has at
// most one event, so rescheduling moves the worker within the heap and
// the heap never holds more than P entries. gseq is a global sequence
// number for deterministic tie-breaking: a rescheduled event sorts after
// every event already pending at the same time.
type eventQueue struct {
	h    []*worker
	gseq int64
}

func eventBefore(a, b *worker) bool {
	if a.eventTime != b.eventTime {
		return a.eventTime < b.eventTime
	}
	return a.eventGseq < b.eventGseq
}

// schedule (re)schedules worker w's next event at time t, superseding any
// pending one.
func (q *eventQueue) schedule(w *worker, t float64) {
	q.gseq++
	w.eventTime, w.eventGseq = t, q.gseq
	if w.qpos < 0 {
		w.qpos = len(q.h)
		q.h = append(q.h, w)
		q.up(w.qpos)
		return
	}
	if !q.up(w.qpos) {
		q.down(w.qpos)
	}
}

// pop removes and returns the worker with the earliest event; the queue
// must not be empty.
func (q *eventQueue) pop() *worker {
	w := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h[n] = nil
	q.h = q.h[:n]
	if n > 0 {
		q.down(0)
	}
	w.qpos = -1
	return w
}

// up sifts the worker at position i towards the root and reports whether
// it moved.
func (q *eventQueue) up(i int) bool {
	h, w, start := q.h, q.h[i], i
	for i > 0 {
		p := (i - 1) / 2
		if !eventBefore(w, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].qpos = i
		i = p
	}
	h[i] = w
	w.qpos = i
	return i != start
}

// down sifts the worker at position i towards the leaves.
func (q *eventQueue) down(i int) {
	h, w := q.h, q.h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && eventBefore(h[r], h[c]) {
			c = r
		}
		if !eventBefore(h[c], w) {
			break
		}
		h[i] = h[c]
		h[i].qpos = i
		i = c
	}
	h[i] = w
	w.qpos = i
}

type worker struct {
	id  int
	rng *sched.RNG

	current *Task
	resume  []*Task // LIFO resume stack (returned continuations)

	// The worker's one pending event, ordered by (eventTime, eventGseq);
	// qpos is its position in the engine's eventQueue, -1 when it has none.
	eventTime float64
	eventGseq int64
	qpos      int

	idle      bool
	idleStart float64
	backoff   float64

	// Profiling accumulators (virtual time).
	busyTime, idleTime, overheadTime float64
	steals, stealAttempts            int64
	migrationsOut                    int64
	tasksRun                         int64

	// fdEnts are the worker's entities in flattened domains, newest last.
	fdEnts []*entity
	// led backs candidates' result when the worker acts only for the
	// entity of the cache it leads.
	led [1]*entity

	// Space-bounded state.
	sbQueue sched.QueueSet[*Task]
}

// Engine runs one simulation.
type Engine struct {
	cfg     Config
	machine *topology.Machine
	costs   CostModel
	mem     *Memory
	hier    *Hierarchy

	workers []*worker
	events  eventQueue
	now     float64

	// mlCaches[level][index] mirrors the machine's cache tree; lead records
	// which worker leads each cache (multi-level modes only).
	mlCaches [][]*mlCache
	lead     *sched.Leadership
	rootDom  *domain
	domSeq   int
	taskSeq  int64

	sb *sbState
	// sbParks counts capacity waits (diagnostics).
	sbParks int64

	rootTask    *Task
	done        bool
	finalTime   float64
	runStartSeq int64

	// ties and flattens count the multi-level decisions of the current run.
	ties, flattens int64

	// b is the builder every task's Body is run with.
	b B
}

// NewEngine prepares a simulation. The same engine can Run multiple root
// bodies in sequence (repetitions share cache state, as the paper's
// repeated measurements within one program execution do).
func NewEngine(cfg Config) *Engine {
	if cfg.Machine == nil {
		panic("sim: Config.Machine is required")
	}
	if cfg.Costs == (CostModel{}) {
		cfg.Costs = DefaultCosts()
	}
	if cfg.SBSigma <= 0 {
		cfg.SBSigma = 0.5
	}
	if cfg.SBMu <= 0 {
		cfg.SBMu = 0.2
	}
	e := &Engine{
		cfg:     cfg,
		machine: cfg.Machine,
		costs:   cfg.Costs,
	}
	e.mem = NewMemory(cfg.Machine.NumNUMANodes(), cfg.NUMA)
	e.hier = NewHierarchy(cfg.Machine, e.mem, &e.costs)
	p := cfg.Machine.NumWorkers()
	if cfg.Tracer != nil && cfg.Tracer.NumWorkers() < p {
		panic(fmt.Sprintf("sim: tracer has %d worker rings, machine needs %d",
			cfg.Tracer.NumWorkers(), p))
	}
	e.workers = make([]*worker, p)
	for i := 0; i < p; i++ {
		e.workers[i] = &worker{id: i, rng: sched.NewRNG(cfg.Seed, i), qpos: -1}
	}
	e.buildMLCaches()
	if cfg.Mode == SB {
		e.initSB()
	}
	e.initDomains()
	return e
}

// Memory returns the engine's virtual heap, for workload allocation.
func (e *Engine) Memory() *Memory { return e.mem }

// Hierarchy exposes the simulated caches (tests and profiling).
func (e *Engine) Hierarchy() *Hierarchy { return e.hier }

func (e *Engine) buildMLCaches() {
	e.mlCaches = make([][]*mlCache, e.machine.NumLevels())
	for level := 1; level < e.machine.NumLevels(); level++ {
		row := e.machine.LevelCaches(level)
		e.mlCaches[level] = make([]*mlCache, len(row))
		for i, c := range row {
			e.mlCaches[level][i] = &mlCache{cache: c}
		}
	}
}

// initDomains sets up the root scheduling domain and, for multi-level
// modes, the initial bottom-up leader election (§4.2).
func (e *Engine) initDomains() {
	switch {
	case e.cfg.Mode == SB:
		// SB uses per-worker deques and per-cache anchors, no domains.
	case e.cfg.Mode.IsMultiLevel():
		e.lead = sched.ElectLeaders(e.machine)
		e.rootDom = e.newCacheDomain(e.machine.LevelCaches(1), 0)
	default:
		// Single-level: one worker-level domain over all workers.
		d := e.newDomain(e.machine.NumWorkers(), 0)
		for w := range d.entities {
			d.entities[w] = &entity{dom: d, idx: w, worker: w}
		}
		d.level = e.machine.MaxLevel()
		e.rootDom = d
	}
}

func (e *Engine) newDomain(n, offset int) *domain {
	e.domSeq++
	return &domain{Axis: sched.Axis{N: n, Offset: offset}, id: e.domSeq,
		adws: e.cfg.Mode.IsADWS(), entities: make([]*entity, n)}
}

// newCacheDomain builds a domain whose entities stand for the caches of
// row, acted for by each cache's current leader.
func (e *Engine) newCacheDomain(row []*topology.Cache, offset int) *domain {
	d := e.newDomain(len(row), offset)
	d.caches = row
	d.level = row[0].Level
	for i, c := range row {
		mc := e.mlCaches[c.Level][c.Index]
		d.entities[i] = &entity{dom: d, idx: i, cache: mc, worker: -1}
		mc.entity = d.entities[i]
	}
	return d
}

func (e *Engine) newTask(body Body, work float64) *Task {
	e.taskSeq++
	return &Task{id: e.taskSeq, body: body, workHint: work, execWorker: -1}
}

// wake brings an idle worker's pending poll forward to time t.
func (e *Engine) wake(w *worker, t float64) {
	if e.done || w.current != nil {
		return
	}
	if w.qpos >= 0 && w.eventTime <= t {
		return
	}
	e.events.schedule(w, t)
}

// Run executes one root body to completion and returns the result. Cache
// contents persist across calls; counters are reset per call.
func (e *Engine) Run(root Body) RunResult {
	e.resetProfile()
	start := e.now
	e.done = false
	e.rootTask = e.newTask(root, 1)
	// Seed the root task on entity 0 of the root domain (SB: worker 0).
	if e.cfg.Mode == SB {
		e.seedSBRoot(e.rootTask)
	} else {
		ent := e.rootDom.entities[0]
		e.rootTask.dom = e.rootDom
		e.rootTask.rng = e.rootDom.FullRange()
		ent.queues.PushPrimary(0, e.rootTask)
		aw := e.actingWorker(ent)
		if aw < 0 {
			panic("sim: root entity has no acting worker")
		}
		e.wake(e.workers[aw], e.now)
	}

	for len(e.events.h) > 0 {
		w := e.events.pop()
		e.now = w.eventTime
		if e.done {
			continue
		}
		if w.current != nil {
			e.step(w)
		} else {
			e.findWork(w)
		}
	}
	if !e.done {
		panic("sim: event queue drained before root task completed (deadlock)")
	}
	return e.collect(start)
}

func (e *Engine) resetProfile() {
	e.runStartSeq = e.taskSeq
	for _, w := range e.workers {
		w.busyTime, w.idleTime, w.overheadTime = 0, 0, 0
		w.steals, w.stealAttempts, w.migrationsOut, w.tasksRun = 0, 0, 0, 0
		w.idle = false
		w.backoff = 0
	}
	e.hier.ResetCounters()
	e.ties, e.flattens = 0, 0
}

// vt converts the current virtual time to a trace timestamp (×1000 keeps
// the cost model's sub-unit resolution through the integer conversion).
func (e *Engine) vt() int64 { return int64(e.now * 1000) }

// ordinal returns t's per-run creation ordinal (the trace task identity).
func (e *Engine) ordinal(t *Task) int64 { return t.id - e.runStartSeq }

// step executes one step of w's current task.
func (e *Engine) step(w *worker) {
	t := w.current
	if !t.built {
		if e.cfg.TraceExec != nil {
			e.cfg.TraceExec(t.id-e.runStartSeq, w.id)
		}
		if tr := e.cfg.Tracer; tr != nil {
			tr.Record(w.id, trace.Event{Type: trace.EvTaskBegin, Time: e.vt(),
				Task: e.ordinal(t), Depth: int32(t.depth),
				RangeLo: t.rng.X, RangeHi: t.rng.Y})
		}
		e.b.steps = nil
		if t.body != nil {
			t.body(&e.b)
		}
		t.steps = e.b.steps
		t.built = true
	}
	if t.next >= len(t.steps) {
		e.complete(w, t)
		return
	}
	st := t.steps[t.next]
	t.next++
	if st.group != nil {
		e.fork(w, t, st.group)
		return
	}
	cost := st.work + e.hier.AccessRange(w.id, st.accesses)
	w.busyTime += cost
	e.events.schedule(w, e.now+cost)
}

// complete finishes task t on worker w and propagates group completion.
func (e *Engine) complete(w *worker, t *Task) {
	t.state = taskDone
	w.current = nil
	w.tasksRun++
	if tr := e.cfg.Tracer; tr != nil {
		tr.Record(w.id, trace.Event{Type: trace.EvTaskEnd, Time: e.vt(),
			Task: e.ordinal(t), Depth: int32(t.depth)})
	}
	ag := t.parentGroup
	if ag == nil {
		// Root task of the run.
		e.done = true
		e.finalTime = e.now
		return
	}
	if t.crossWorker && ag.node != nil {
		ag.node.CrossTaskCompleted()
	}
	if len(t.sbRes) > 0 {
		e.sbRelease(t)
	}
	ag.remaining--
	if ag.remaining == 0 {
		e.groupComplete(ag)
	}
	e.events.schedule(w, e.now)
}

// groupComplete handles the completion of all children of a task group:
// multi-level unties, domain teardown, and resumption of the parent task's
// continuation on its owner.
func (e *Engine) groupComplete(ag *activeGroup) {
	if ag.node != nil {
		ag.node.Finish()
	}
	if ag.tiedTo != nil {
		e.untie(ag)
	}
	if ag.flattened != nil {
		e.unflatten(ag)
	}
	p := ag.parent
	p.state = taskReady
	p.waitingOn = nil
	ow := e.workers[p.execWorker]
	if tr := e.cfg.Tracer; tr != nil {
		tr.Record(ow.id, trace.Event{Type: trace.EvWaitExit, Time: e.vt(),
			Task: e.ordinal(p), Depth: int32(p.depth)})
	}
	ow.resume = append(ow.resume, p)
	e.wake(ow, e.now)
}
