// Package runtime is a user-level tasking runtime implementing the ADWS
// paper's schedulers on real OS threads: conventional work stealing
// (SL-WS), single-level almost deterministic work stealing (SL-ADWS), and
// their multi-level variants (ML-WS, ML-ADWS) with cache-hierarchy
// flattening.
//
// The Go runtime's goroutine scheduler cannot be directed, so this package
// bypasses it: a fixed pool of workers (one goroutine per simulated core)
// runs its own scheduler loop over per-entity task queues, exactly as
// MassiveThreads underlies the paper's implementation. Continuation handling differs by necessity: Go cannot
// capture stack continuations, so task-group waits are blocking and the
// waiting worker executes pending tasks (help-inside-wait); the paper's
// observable ADWS invariants — left-to-right per-worker order, owner
// executes cross-worker continuations, dominant-group steal ranges — are
// preserved (see DESIGN.md).
package runtime

import (
	"errors"
	"fmt"
	"math"
	gort "runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/parlab/adws/internal/metrics"
	"github.com/parlab/adws/internal/obs"
	"github.com/parlab/adws/internal/sched"
	"github.com/parlab/adws/internal/topology"
	"github.com/parlab/adws/internal/trace"
)

// Policy selects the scheduling algorithm.
type Policy int

const (
	// WS is conventional random work stealing.
	WS Policy = iota
	// ADWS is single-level almost deterministic work stealing.
	ADWS
	// MLWS is multi-level scheduling with work stealing per level.
	MLWS
	// MLADWS is multi-level ADWS with cache-hierarchy flattening.
	MLADWS
)

func (p Policy) String() string {
	switch p {
	case WS:
		return "ws"
	case ADWS:
		return "adws"
	case MLWS:
		return "mlws"
	case MLADWS:
		return "mladws"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// isADWS reports whether deterministic task mapping is used at each level.
func (p Policy) isADWS() bool { return p == ADWS || p == MLADWS }

// isML reports whether multi-level scheduling is used.
func (p Policy) isML() bool { return p == MLWS || p == MLADWS }

// Config parameterizes a Pool.
type Config struct {
	// Machine describes the cache hierarchy used for worker placement and
	// multi-level scheduling. Defaults to a flat machine with one worker
	// per available CPU.
	Machine *topology.Machine
	// Policy selects the scheduler (default WS).
	Policy Policy
	// Seed drives victim selection.
	Seed uint64
	// Tracer, if non-nil, receives per-worker scheduler events (task
	// spans, steals, migrations, waits, multi-level boundary crossings).
	// It must have at least as many rings as the pool has workers. A nil
	// Tracer costs one pointer check per event site.
	Tracer *trace.Tracer
	// Registry receives the pool's families: the latency histograms
	// adws_park_seconds, adws_steal_attempt_seconds and
	// adws_wake_to_run_seconds (one shard per worker), and the scheduling
	// counters read from Stats at render time (docs/METRICS.md). Nil
	// registers them on a private registry.
	Registry *metrics.Registry
	// Flight, if non-nil, is the always-on flight recorder: it receives
	// the same events as the Tracer but filtered by its type mask and
	// depth limit (obs.Recorder.Wants), checked BEFORE the event — and
	// its timestamp — is built. It must have at least as many rings as
	// the pool has workers. Nil costs one pointer check per site.
	Flight *obs.Recorder
}

// Pool is a running worker pool.
type Pool struct {
	machine *topology.Machine
	policy  Policy
	// tracer is nil unless tracing was requested; every event site guards
	// on that single pointer.
	tracer *trace.Tracer
	// parkHist, probeHist and wakeHist record park → wake, one victim
	// probe, and park wakeup → first task obtained (spurious wakes
	// excluded), each worker into its own shard.
	parkHist, probeHist, wakeHist *metrics.Histogram
	// flight is nil unless a flight recorder was attached; obs.Recorder
	// methods are nil-receiver-safe, so sites gate on flight.Wants alone.
	flight *obs.Recorder
	// taskSeq issues task creation ordinals, only when tracing or when
	// the flight recorder keeps the task's span events.
	taskSeq atomic.Int64

	workers []*worker
	rootDom *domain
	domSeq  atomic.Int64

	// ml guards the multi-level leadership and domain structures.
	//adws:lockrank(60)
	ml struct {
		sync.Mutex
		caches [][]*mlCache //adws:locked(ml)
		// lead records which worker leads each cache (nil for
		// single-level policies).
		lead *sched.Leadership //adws:locked(ml)
	}

	// idleWords is the parked-worker bitmask (bit w&63 of word w>>6) and
	// nparked its mirror count, the producers' one-atomic-load fast path.
	// See park.go for the parking/wakeup protocol.
	idleWords []paddedWord
	nparked   atomic.Int32

	shutdown atomic.Bool
	wg       sync.WaitGroup

	// runMu serializes Run calls: concurrent Runs are safe but execute one
	// after another (use SubmitRoot for concurrent root computations).
	runMu sync.Mutex //adws:lockrank(40) Run injects roots under it (rootMu rank 50)
	// rootMu guards rootQ, the FIFO of injected root tasks awaiting their
	// owner entity's acting worker (pushing from a submitting goroutine
	// would violate the lock-free deque's single-owner requirement).
	// rootN mirrors len(rootQ) as the workers' lock-free fast path.
	rootMu sync.Mutex //adws:lockrank(50)
	rootQ  []*task    //adws:locked(rootMu)
	rootN  atomic.Int32
	// jobSeq issues root-job ordinals (1-based; 0 means "no job").
	jobSeq atomic.Int64
}

// paddedWord is an atomic.Uint64 padded to its own cache line so idle-mask
// words do not false-share.
type paddedWord struct {
	atomic.Uint64
	_ [56]byte
}

// ErrClosed is returned by SubmitRoot on a closed pool, and by RootJob.Err
// on jobs whose root was still unclaimed when the pool closed.
var ErrClosed = errors.New("runtime: pool is closed")

// ErrBadRange is returned by SubmitRoot when the requested placement
// fraction is empty, reversed, or NaN.
var ErrBadRange = errors.New("runtime: invalid root range (need lo < hi)")

// RootJob tracks one injected root computation: a completion signal plus
// per-job scheduling counters maintained by the workers (every task
// transitively spawned by the root carries a pointer to its RootJob).
type RootJob struct {
	id   int64
	rng  sched.Range
	done chan struct{}
	// err is set (before done closes) when the job failed without running,
	// e.g. the pool closed while the root was still unclaimed.
	err atomic.Pointer[error]

	// tasks holds one padded count per worker: every task bumps the slot
	// of the worker that runs it, so two workers on one job do not bounce
	// a cache line per task. Steals and migrations are rare and share one
	// counter each.
	tasks              []jobShard
	steals, migrations atomic.Int64
}

// jobShard is one worker's task count for a job, padded to a cache line.
type jobShard struct {
	n atomic.Int64
	_ [56]byte
}

// ID returns the job's ordinal (1-based, unique per pool). Trace events of
// the job's tasks carry it in Event.Job.
func (j *RootJob) ID() int64 { return j.id }

// Done is closed when the root task and everything it transitively spawned
// and awaited completed — or when the job failed without running (see Err).
func (j *RootJob) Done() <-chan struct{} { return j.done }

// Err reports why the job failed without running: ErrClosed when the pool
// was closed while the root was still queued, nil for jobs that ran (task
// bodies have no error channel of their own). Err is safe to call at any
// time; it is final once Done is closed.
func (j *RootJob) Err() error {
	if e := j.err.Load(); e != nil {
		return *e
	}
	return nil
}

// fail completes the job without running it.
func (j *RootJob) fail(err error) {
	j.err.Store(&err)
	close(j.done)
}

// Range returns the distribution range the root task was placed with, in
// root-domain entity units.
func (j *RootJob) Range() sched.Range { return j.rng }

// Tasks returns the number of the job's tasks executed so far. Safe to
// read while the job runs.
func (j *RootJob) Tasks() int64 {
	var n int64
	for i := range j.tasks {
		n += j.tasks[i].n.Load()
	}
	return n
}

// Steals returns the number of successful steals that moved one of the
// job's tasks. Safe to read while the job runs.
func (j *RootJob) Steals() int64 { return j.steals.Load() }

// Migrations returns the number of deterministic migrations of the job's
// tasks. Safe to read while the job runs.
func (j *RootJob) Migrations() int64 { return j.migrations.Load() }

// task is one schedulable unit.
type task struct {
	fn func(*Ctx)
	// pg is the group this task belongs to (nil for the root task).
	pg *taskGroup
	// ctx is the context the body receives. A task runs exactly once, so
	// execute writes it once; groups the body opens point back at it.
	ctx Ctx

	// ent is the entity the task executes on behalf of; its domain is the
	// task's domain.
	ent         *entity
	rng         sched.Range
	group       *sched.GroupNode
	depth       int
	inMigration bool
	crossWorker bool
	// sdepth is the spawn-tree depth (root = 0, each Spawn adds one).
	// The scheduler's group depth above saturates for worker-local work,
	// so the flight recorder's task-span depth filter keys on this
	// instead; it costs one add per spawn and is policy-independent.
	sdepth int32
	// seq is the task's creation ordinal, assigned only when tracing or
	// when the flight recorder keeps the task's span events.
	seq int64
	// job is the root job this task descends from (nil only for internal
	// tasks created before job tracking existed; all Run/SubmitRoot roots
	// carry one).
	job *RootJob
}

// jobID returns the task's job ordinal, or 0 without a job.
func (t *task) jobID() int64 {
	if t.job == nil {
		return 0
	}
	return t.job.id
}

// taskGroup is a live task group created by Ctx.Group.
type taskGroup struct {
	pool   *Pool
	parent *Ctx
	// GroupPlacement holds the group's cross-worker tree node (nil for
	// non-cross groups), its children's group, depth and queue family, and
	// whether the group is worker-local (Local: children inherit the
	// parent's range and entity, nothing is split or classified); it stays
	// zero in WS domains.
	sched.GroupPlacement
	// splitter divides the parent range incrementally across Spawn calls.
	// Only cross-worker ADWS groups have one, and it stays behind a
	// pointer so that taskGroup keeps its size class (pad_test.go).
	splitter *sched.Splitter
	// dom is the domain children are spawned into.
	dom *domain
	// ent is the parent's entity in dom.
	ent *entity
	// iExec is the parent's logical entity index in dom (unset in Local
	// groups, which classify nothing).
	iExec int
	// execChild is the deferred type-(2) child, run first in Wait.
	execChild *task
	// remaining counts unfinished children.
	remaining atomic.Int32
	// waiter is the worker id parked in this group's Wait (-1 none): the
	// last child's completion wakes exactly that worker (park.go).
	waiter atomic.Int32
	// tiedTo / flattened mirror the multi-level state.
	tiedTo    *mlCache
	flattened *domain
	// fresh marks groups that opened a new domain.
	fresh bool
	// waited is set once Wait runs; further Spawn/Wait calls panic.
	waited bool
}

// Ctx is the execution context a task body receives.
type Ctx struct {
	w   *worker
	cur *task
}

// Worker returns the executing worker's ID.
func (c *Ctx) Worker() int { return c.w.id }

// Pool returns the owning pool.
func (c *Ctx) Pool() *Pool { return c.w.pool }

// NewPool starts the workers.
func NewPool(cfg Config) *Pool {
	if cfg.Machine == nil {
		cfg.Machine = topology.Flat(gort.GOMAXPROCS(0), 32<<20, 1<<20)
	}
	n := cfg.Machine.NumWorkers()
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	p := &Pool{machine: cfg.Machine, policy: cfg.Policy, tracer: cfg.Tracer, flight: cfg.Flight,
		parkHist: reg.Histogram("adws_park_seconds",
			"Worker blocking-park duration, park to wake.", n),
		probeHist: reg.Histogram("adws_steal_attempt_seconds",
			"Latency of individual steal victim probes.", n),
		wakeHist: reg.Histogram("adws_wake_to_run_seconds",
			"Park wakeup to first task obtained (spurious wakes excluded).", n),
	}
	if p.tracer != nil && p.tracer.NumWorkers() < n {
		panic(fmt.Sprintf("runtime: tracer has %d worker rings, pool needs %d",
			p.tracer.NumWorkers(), n))
	}
	if p.flight != nil && p.flight.NumWorkers() < n {
		panic(fmt.Sprintf("runtime: flight recorder has %d worker rings, pool needs %d",
			p.flight.NumWorkers(), n))
	}
	p.idleWords = make([]paddedWord, (n+63)/64)
	p.workers = make([]*worker, n)
	for i := 0; i < n; i++ {
		p.workers[i] = &worker{id: i, pool: p, rng: sched.NewRNG(cfg.Seed, i),
			parkCh: make(chan struct{}, 1)}
	}
	p.initTopology()
	// The scheduling counters render from Stats, read once per family.
	stat := func(name, help string, f func(Stats) int64, scale float64) {
		reg.CounterFunc(name, help, func() float64 { return float64(f(p.Stats())) / scale })
	}
	stat("adws_tasks_total", "Tasks executed.", func(s Stats) int64 { return s.Tasks }, 1)
	stat("adws_steals_total", "Successful steals.", func(s Stats) int64 { return s.Steals }, 1)
	stat("adws_steal_attempts_total", "Steal victim probes.", func(s Stats) int64 { return s.StealAttempts }, 1)
	stat("adws_migrations_total", "Deterministic task migrations.", func(s Stats) int64 { return s.Migrations }, 1)
	stat("adws_parks_total", "Worker blocking parks.", func(s Stats) int64 { return s.Parks }, 1)
	stat("adws_wakes_total", "Wake tokens consumed by workers.", func(s Stats) int64 { return s.Wakes }, 1)
	stat("adws_busy_seconds_total", "Wall-clock task-execution time summed over workers.",
		func(s Stats) int64 { return s.BusyNS }, 1e9)
	stat("adws_idle_seconds_total", "Wall-clock work-search time summed over workers.",
		func(s Stats) int64 { return s.IdleNS }, 1e9)
	reg.GaugeFunc("adws_workers", "Pool worker count.", func() float64 { return float64(n) })
	perWorker := func(name, help string, f func(WorkerStats) int64) {
		reg.CounterMultiFunc(name, help, func() []metrics.MultiLabeled {
			out := make([]metrics.MultiLabeled, n)
			for i, ws := range p.Stats().PerWorker {
				out[i] = metrics.MultiLabeled{
					Labels: []metrics.Label{{Name: "worker", Value: strconv.Itoa(i)}},
					Value:  float64(f(ws)),
				}
			}
			return out
		})
	}
	perWorker("adws_worker_tasks_total", "Tasks executed per worker.",
		func(ws WorkerStats) int64 { return ws.Tasks })
	perWorker("adws_worker_steals_total", "Successful steals per worker.",
		func(ws WorkerStats) int64 { return ws.Steals })
	for _, w := range p.workers {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			w.schedule(nil)
		}()
	}
	return p
}

// NumWorkers returns the pool size.
func (p *Pool) NumWorkers() int { return len(p.workers) }

// Policy returns the pool's scheduling policy.
func (p *Pool) Policy() Policy { return p.policy }

// Close stops all workers. Outstanding Runs must have completed. Roots
// submitted but not yet claimed by a worker are failed: their Done channel
// closes and their Err reports ErrClosed, so no Submit caller is left
// blocked on an abandoned job.
func (p *Pool) Close() {
	p.shutdown.Store(true)
	// Drain the root queue before waking the workers: a root no worker
	// ever claimed would otherwise strand its job's Done forever.
	p.rootMu.Lock()
	orphans := p.rootQ
	p.rootQ = nil
	p.rootN.Store(0)
	p.rootMu.Unlock()
	for _, t := range orphans {
		if t.job != nil {
			t.job.fail(ErrClosed)
		}
	}
	p.wakeAllParked()
	p.wg.Wait()
}

// Run executes fn as the root task and blocks until it (and every task it
// transitively spawned and waited for) completes. Concurrent Run calls are
// safe: they serialize and execute one after another, each over the full
// worker range (submit concurrent roots with SubmitRoot instead). Run
// panics if the pool is closed.
func (p *Pool) Run(fn func(*Ctx)) {
	p.runMu.Lock()
	defer p.runMu.Unlock()
	j, err := p.SubmitRoot(fn, 0, 1)
	if err != nil {
		panic("runtime: Run on closed Pool")
	}
	<-j.Done()
}

// SubmitRoot injects fn as a new root task placed on the fraction
// [lo, hi) of the root scheduling domain (0 ≤ lo < hi ≤ 1; Run uses
// [0, 1)) and returns without waiting. Multiple roots may be in flight
// concurrently: each is claimed by the worker acting for the owner entity
// of its range, and under ADWS its hint-guided division and dominant-group
// steal ranges confine its descendants to the submitted fraction (up to
// dynamic load balancing). A single in-flight SubmitRoot over [0, 1)
// behaves exactly like Run.
//
// SubmitRoot returns ErrClosed on a closed pool and ErrBadRange when the
// fraction is NaN or empty (hi <= lo after clamping to [0, 1]): a silently
// remapped range would defeat the caller's placement hints. Roots
// submitted before Close that no worker claimed yet are failed by Close:
// their Done closes and Err reports ErrClosed.
func (p *Pool) SubmitRoot(fn func(*Ctx), lo, hi float64) (*RootJob, error) {
	if p.shutdown.Load() {
		return nil, ErrClosed
	}
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return nil, fmt.Errorf("%w: [%v, %v)", ErrBadRange, lo, hi)
	}
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	if hi <= lo {
		return nil, fmt.Errorf("%w: [%v, %v)", ErrBadRange, lo, hi)
	}
	d := p.rootDom
	rng := d.Fraction(lo, hi)
	j := &RootJob{id: p.jobSeq.Add(1), rng: rng, done: make(chan struct{}),
		tasks: make([]jobShard, len(p.workers))}
	owner := d.entities[d.Physical(rng.Owner())]
	root := &task{
		fn: func(c *Ctx) {
			fn(c)
			close(j.done)
		},
		ent: owner,
		rng: rng,
		job: j,
	}
	if p.tracer != nil || p.flight.Wants(trace.EvTaskBegin, 0) {
		root.seq = p.taskSeq.Add(1)
	}
	p.rootMu.Lock()
	if p.shutdown.Load() {
		p.rootMu.Unlock()
		return nil, ErrClosed
	}
	p.rootQ = append(p.rootQ, root)
	p.rootN.Store(int32(len(p.rootQ)))
	p.rootMu.Unlock()
	p.wakeForRoot(owner)
	return j, nil
}

// claimRoot hands the oldest pending root task owned by one of the
// worker's candidate entities to the worker, or nil. Only top-level
// callers claim roots (never helping waits), so a root's completion can
// never be trapped under another job's wait.
func (p *Pool) claimRoot(cands []*entity) *task {
	p.rootMu.Lock()
	defer p.rootMu.Unlock()
	for i, t := range p.rootQ {
		for _, ent := range cands {
			if t.ent == ent {
				copy(p.rootQ[i:], p.rootQ[i+1:])
				// Nil the vacated tail slot: a stale *task pointer in the
				// backing array would keep the finished job's closure (and
				// whatever it captures) alive until the slot is reused.
				p.rootQ[len(p.rootQ)-1] = nil
				p.rootQ = p.rootQ[:len(p.rootQ)-1]
				p.rootN.Store(int32(len(p.rootQ)))
				return t
			}
		}
	}
	return nil
}

// WorkerStats is one worker's scheduling counters.
type WorkerStats struct {
	Worker                                   int
	Tasks, Steals, StealAttempts, Migrations int64
	// Parks counts times the worker blocked on its parker; Wakes counts
	// wake tokens it consumed (parkCancel absorptions are neither).
	Parks, Wakes int64
	// BusyNS and IdleNS follow the same accounting as Stats.
	BusyNS, IdleNS int64
}

// Stats aggregates per-worker counters.
type Stats struct {
	Tasks, Steals, StealAttempts, Migrations int64
	// Parks and Wakes count worker park/wake cycles: on an idle pool both
	// stay flat (workers block indefinitely instead of polling), and under
	// load Wakes approximates the number of productive wakeups.
	Parks, Wakes int64
	// BusyNS and IdleNS are wall-clock nanoseconds summed over workers:
	// time executing tasks and time searching for work (the paper's §6.1
	// busy/idle profile; the nested execution of helping waits counts as
	// busy for the innermost task only once).
	BusyNS, IdleNS int64
	// PerWorker breaks the aggregates down by worker, indexed by worker
	// ID.
	PerWorker []WorkerStats
}

// StealSuccessRate returns Steals/StealAttempts, or 0 with no attempts.
func (s Stats) StealSuccessRate() float64 {
	if s.StealAttempts == 0 {
		return 0
	}
	return float64(s.Steals) / float64(s.StealAttempts)
}

// Stats returns scheduling counters accumulated since pool creation.
func (p *Pool) Stats() Stats {
	s := Stats{PerWorker: make([]WorkerStats, len(p.workers))}
	for i, w := range p.workers {
		wi := w.stats.waitIdleNS.Load()
		busy := w.stats.busyNS.Load() - wi
		if busy < 0 {
			// waitIdleNS accumulates inside a still-open busy span: until
			// the outer busyNS add lands the difference can transiently go
			// negative. Clamp rather than report nonsense mid-run.
			busy = 0
		}
		ws := WorkerStats{
			Worker:        i,
			Tasks:         w.stats.tasks.Load(),
			Steals:        w.stats.steals.Load(),
			StealAttempts: w.stats.stealAttempts.Load(),
			Migrations:    w.stats.migrations.Load(),
			Parks:         w.stats.parks.Load(),
			Wakes:         w.stats.wakes.Load(),
			BusyNS:        busy,
			IdleNS:        w.stats.idleNS.Load() + wi,
		}
		s.PerWorker[i] = ws
		s.Tasks += ws.Tasks
		s.Steals += ws.Steals
		s.StealAttempts += ws.StealAttempts
		s.Migrations += ws.Migrations
		s.Parks += ws.Parks
		s.Wakes += ws.Wakes
		s.BusyNS += ws.BusyNS
		s.IdleNS += ws.IdleNS
	}
	return s
}

// workerStats is a worker's hot counter block, padded to whole cache
// lines: the counters are bumped by the owning worker on every task,
// steal probe, and park cycle, and must not share a line with the fields
// producers read on the wakeup fast path (parkCh, id). The layout is
// pinned by TestWorkerStatsLayout.
type workerStats struct {
	tasks, steals, stealAttempts, migrations atomic.Int64
	// parks counts blocking park cycles; wakes counts wake tokens
	// consumed (parkCancel absorptions are neither).
	parks, wakes atomic.Int64
	// busyNS and idleNS accumulate wall-clock task-execution and
	// work-search time (the paper's busy/idle profile, §6.1).
	// busyNS measures outermost task spans; waitIdleNS measures time spent
	// searching/parking inside helping waits, which is subtracted from
	// busy and added to idle when reporting.
	busyNS, idleNS, waitIdleNS atomic.Int64
	_                          [56]byte
}

// worker is one scheduler loop.
type worker struct {
	// stats leads the struct so the owner-written counters start at
	// offset 0 on their own cache lines.
	stats workerStats

	id   int
	pool *Pool
	rng  *sched.RNG

	// self is the worker's fixed candidate list under the single-level
	// policies: its own root-domain entity (nil under multi-level ones).
	self []*entity

	// fdMu guards fdEnts (flattened-domain entities, newest last).
	fdMu   sync.Mutex //adws:lockrank(70) mlDecide flattens under Pool.ml (rank 60)
	fdEnts []*entity  //adws:locked(fdMu)

	// parkCh is the worker's one-slot wake semaphore (see park.go).
	parkCh chan struct{}

	// curJob and curStart are the live-introspection pair read lock-free
	// by Pool.SchedSnapshot: the root-job ordinal of the task the worker
	// is running and when it began running that job continuously
	// (monotonic ns). The owner stores them only on job CHANGES (and
	// clears curJob before parking), so per-task cost is one predicted
	// load+compare.
	curJob, curStart atomic.Int64
	// idleSince marks the start of the current idle stretch (wall-clock
	// ns), or 0 when not idle. Only the owning worker writes it.
	idleSince int64
	// wakeAt is the timestamp of the last park wakeup whose wake-to-run
	// latency has not been recorded yet, or 0. Owner-only; the wakeup's
	// idle stretch records and clears it (markIdleEnd), the next blocking
	// park drops it (a spurious wake must not pollute the histogram).
	wakeAt int64
}

// now returns a wall-clock timestamp in nanoseconds: time.Now().UnixNano()
// is not monotonic, so a clock step skews spans (ROADMAP.md item 18(a)).
func now() int64 { return time.Now().UnixNano() }

// markIdleStart begins an idle stretch if none is open.
func (w *worker) markIdleStart() {
	if w.idleSince == 0 {
		w.idleSince = now()
	}
}

// markIdleEnd closes the open idle stretch, if any, and returns its
// closing stamp (0 when none was open). The stretch is charged to
// waitIdleNS inside a helping wait (inWait) and to idleNS at top level; a
// park wakeup pending in it closes its wake-to-run span at the same stamp.
func (w *worker) markIdleEnd(inWait bool) int64 {
	if w.idleSince == 0 {
		return 0
	}
	ts := now()
	if inWait {
		w.stats.waitIdleNS.Add(ts - w.idleSince)
	} else {
		w.stats.idleNS.Add(ts - w.idleSince)
	}
	w.idleSince = 0
	if w.wakeAt != 0 {
		w.pool.wakeHist.Record(w.id, ts-w.wakeAt)
		w.wakeAt = 0
	}
	return ts
}

// schedule is the scheduler loop: find a task and run it, else spin,
// yield, and park. g is the group a helping wait is blocked in; the loop
// returns once g has no unfinished children, or at top level (g nil) once
// the pool shuts down.
func (w *worker) schedule(g *taskGroup) {
	spins := 0
	for w.pending(g) {
		t := w.findTask(g)
		if t == nil {
			w.markIdleStart()
			if spins++; spins < parkSpins {
				gort.Gosched()
				continue
			}
			// Park until a targeted wakeup (push, root submission, g's last
			// completion, shutdown). No timeout: a fully idle pool blocks
			// and burns zero CPU. The recheck inside park closes the race
			// where work landed between findTask and advertising.
			spins = 0
			if t = w.park(g); t == nil {
				continue
			}
		}
		spins = 0
		w.markIdleEnd(g != nil)
		w.execute(t, g == nil)
	}
}

// pending reports whether schedule(g) keeps running: g has unfinished
// children or, at top level, the pool is open.
func (w *worker) pending(g *taskGroup) bool {
	if g == nil {
		return !w.pool.shutdown.Load()
	}
	return g.remaining.Load() > 0
}

// wantEv reports whether an event of type t at filter depth fd should
// be built at all: the tracer takes everything, the flight recorder
// takes what its filter passes. Sites call it BEFORE constructing the
// event so a filtered event never reads the clock. For task spans and
// waits fd is the SPAWN depth (task.sdepth), not the event's group
// depth — group depth saturates for worker-local work and would let
// every microtask through the recorder; fd is irrelevant for the
// always-kept types.
//
//adws:hotpath
func (w *worker) wantEv(t trace.EventType, fd int32) bool {
	return w.pool.tracer != nil || w.pool.flight.Wants(t, fd)
}

// emit records one event to the tracer and, when the flight filter
// passes its type at filter depth fd, to the flight recorder. Callers
// must have checked wantEv with the same type and fd.
//
//adws:hotpath
func (w *worker) emit(ev trace.Event, fd int32) {
	if tr := w.pool.tracer; tr != nil {
		tr.Record(w.id, ev)
	}
	if fl := w.pool.flight; fl.Wants(ev.Type, fd) {
		fl.Record(w.id, ev)
	}
}

// execute runs one task to completion. An outermost task (outer: run by
// the top of the scheduler loop) reads the clock twice, and its busy span
// and begin/end events share those stamps; a task nested in a helping
// wait reads it only for its events.
func (w *worker) execute(t *task, outer bool) {
	w.stats.tasks.Add(1)
	if t.job != nil {
		t.job.tasks[w.id].n.Add(1)
	}
	var start, end int64
	if outer {
		start = now()
		if j := t.jobID(); j != w.curJob.Load() {
			w.curJob.Store(j)
			w.curStart.Store(start)
		}
	}
	if w.wantEv(trace.EvTaskBegin, t.sdepth) {
		if !outer {
			start = now()
		}
		w.emit(trace.Event{Type: trace.EvTaskBegin, Time: start,
			Task: t.seq, Job: t.jobID(), Depth: int32(t.depth),
			RangeLo: t.rng.X, RangeHi: t.rng.Y}, t.sdepth)
	}
	t.ctx = Ctx{w: w, cur: t}
	t.fn(&t.ctx)
	if outer {
		end = now()
		w.stats.busyNS.Add(end - start)
	}
	if w.wantEv(trace.EvTaskEnd, t.sdepth) {
		if !outer {
			end = now()
		}
		w.emit(trace.Event{Type: trace.EvTaskEnd, Time: end,
			Task: t.seq, Job: t.jobID(), Depth: int32(t.depth)}, t.sdepth)
	}
	w.pool.taskDone(t)
}

// taskDone propagates a task's completion to its group. Completions create
// no new work, so the only worker a completion can unblock is the group's
// waiting parent — and only the LAST completion unblocks it. The fast path
// is one atomic decrement; the old global broadcast is gone.
//
//adws:hotpath
func (p *Pool) taskDone(t *task) {
	g := t.pg
	if g == nil {
		return
	}
	if t.crossWorker && g.Node != nil {
		g.Node.CrossTaskCompleted()
	}
	if g.remaining.Add(-1) == 0 && p.nparked.Load() != 0 {
		if id := g.waiter.Load(); id >= 0 {
			p.tryWake(p.workers[id])
		}
	}
}
