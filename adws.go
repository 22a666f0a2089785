// Package adws provides nested (fork-join) task parallelism with
// locality-aware scheduling, implementing the schedulers of
//
//	Shiina & Taura, "Almost Deterministic Work Stealing", SC 2019
//	(extended in IEEE TPDS 33(12), 2022).
//
// A Pool runs a fixed set of workers over a declared cache hierarchy.
// Tasks spawn child tasks in task groups (the Intel-TBB-style constructs
// of the paper's Fig. 2), optionally annotated with relative work hints
// and working-set-size hints:
//
//	pool, _ := adws.NewPool(adws.WithScheduler(adws.ADWS))
//	defer pool.Close()
//	pool.Run(func(c *adws.Ctx) {
//		g := c.Group(adws.GroupHint{Work: 3, Size: totalBytes})
//		g.Spawn(1, func(c *adws.Ctx) { left() })
//		g.Spawn(2, func(c *adws.Ctx) { right() }) // twice the work
//		g.Wait()
//	})
//
// Four schedulers are available: conventional random work stealing
// (WorkStealing), single-level almost deterministic work stealing (ADWS),
// and their multi-level variants (MultiLevelWS, MultiLevelADWS) which tie
// task groups to shared caches and apply cache-hierarchy flattening.
// Work hints may be rough or omitted — ADWS fixes imbalances by dynamic
// load balancing within dominant-group steal ranges (§3.2 of the paper).
package adws

import (
	"context"
	"fmt"
	gort "runtime"

	"github.com/parlab/adws/internal/metrics"
	"github.com/parlab/adws/internal/obs"
	"github.com/parlab/adws/internal/runtime"
	"github.com/parlab/adws/internal/server"
	"github.com/parlab/adws/internal/topology"
	"github.com/parlab/adws/internal/trace"
)

// Scheduler selects the scheduling algorithm of a Pool.
type Scheduler = runtime.Policy

const (
	// WorkStealing is conventional random work stealing (the paper's
	// SL-WS baseline; Cilk-Plus-like behaviour).
	WorkStealing = runtime.WS
	// ADWS is single-level almost deterministic work stealing (§3).
	ADWS = runtime.ADWS
	// MultiLevelWS applies multi-level scheduling with random work
	// stealing at every cache level (§4).
	MultiLevelWS = runtime.MLWS
	// MultiLevelADWS is multi-level ADWS with cache-hierarchy flattening
	// (§5) — the paper's best performer on memory-bound workloads.
	MultiLevelADWS = runtime.MLADWS
)

// Ctx is the execution context passed to every task body.
type Ctx = runtime.Ctx

// TaskGroup is a handle for spawning and awaiting child tasks.
type TaskGroup = runtime.TaskGroup

// GroupHint carries the per-group scheduling hints of the paper's Fig. 2b.
type GroupHint = runtime.GroupHint

// Stats aggregates scheduling counters.
type Stats = runtime.Stats

// WorkerStats is one worker's scheduling counters (Stats.PerWorker).
type WorkerStats = runtime.WorkerStats

// MetricsRegistry renders the pool's metrics as Prometheus text
// exposition (format 0.0.4): the scheduling counters and the park,
// steal-probe and wake-to-run histograms the runtime registers, the job
// counters, queue gauges and queue-wait, service and end-to-end
// histograms the job server registers, and the watchdog and flight
// recorder counters. Obtain a pool's registry with Pool.Metrics and
// render with WriteText; see docs/METRICS.md for the metric catalogue.
type MetricsRegistry = metrics.Registry

// Tracer records per-worker scheduler events into lock-free ring buffers
// and exports them as Chrome trace-event JSON (WriteChromeTrace, viewable
// in Perfetto or chrome://tracing) or derived metrics (Summarize). Enable
// it with WithTracing; see docs/TRACING.md.
type Tracer = trace.Tracer

// TraceEvent is one recorded scheduler event.
type TraceEvent = trace.Event

// TraceSummary is the derived-metrics view of a trace.
type TraceSummary = trace.Summary

// FlightRecorder is the always-on flight recorder: a small per-worker
// event ring over the tracer's schema that keeps the recent scheduling
// past at near-zero cost and dumps it on demand (or on watchdog
// triggers) without stopping the pool. See docs/OBSERVABILITY.md.
type FlightRecorder = obs.Recorder

// FlightDump is one flight-recorder dump: the recorded event window plus
// the scheduler snapshot taken with it.
type FlightDump = obs.Dump

// Watchdog samples cheap scheduler signals and auto-dumps the flight
// recorder on stalls, deadline-miss bursts, and SLO burn.
type Watchdog = obs.Watchdog

// WatchdogConfig tunes the watchdog (WithWatchdog).
type WatchdogConfig = obs.WatchdogConfig

// WatchdogStatus is the watchdog's health summary, served by /healthz.
type WatchdogStatus = obs.Status

// SchedSnapshot is a point-in-time view of every worker's live scheduler
// state (served by /debug/sched).
type SchedSnapshot = obs.SchedSnapshot

// SchedWorkerState is one worker's row in a SchedSnapshot.
type SchedWorkerState = obs.WorkerState

// Watchdog trigger reasons (the adws_watchdog_triggers_total labels).
const (
	WatchdogWorkerStall   = obs.ReasonWorkerStall
	WatchdogDeadlineBurst = obs.ReasonDeadlineBurst
	WatchdogSLOBurn       = obs.ReasonSLOBurn
)

// JobHint carries per-job admission and placement hints: relative work
// against the other in-flight jobs, working-set size in bytes, and an
// optional queue deadline. See Pool.Submit.
type JobHint = server.Hint

// Job is one submitted root computation with its own lifecycle: Wait,
// Err, Cancel, State, and per-job scheduling Stats.
type Job = server.Job

// JobStats is a job's scheduling profile: queue/run timing, the worker
// fraction it was placed on, and its slice of the steal/migration
// counters.
type JobStats = server.Stats

// JobState is a job's lifecycle state.
type JobState = server.State

// Counters are a pool's monotonic admission counters: jobs submitted,
// fast-rejected, and finished by terminal state.
type Counters = server.Counters

// Job lifecycle states.
const (
	JobQueued   = server.Queued
	JobRunning  = server.Running
	JobDone     = server.Done
	JobFailed   = server.Failed
	JobCanceled = server.Canceled
)

// Admission-control errors returned by Pool.Submit.
var (
	// ErrOverloaded is the fast-reject: the admission queue is full.
	ErrOverloaded = server.ErrOverloaded
	// ErrDraining rejects submissions while Pool.Drain is in progress.
	ErrDraining = server.ErrDraining
	// ErrPoolClosed rejects submissions after Pool.Close.
	ErrPoolClosed = server.ErrClosed
	// ErrRateLimited fast-rejects a submission whose tenant exhausted its
	// token bucket (SLO admission; see WithTenantRateLimit).
	ErrRateLimited = server.ErrRateLimited
	// ErrUnknownClass rejects a submission naming a priority class the
	// pool was not configured with.
	ErrUnknownClass = server.ErrUnknownClass
)

// Admission policies for WithAdmissionPolicy.
const (
	// AdmitFIFO dispatches strictly in submission order (default).
	AdmitFIFO = server.AdmitFIFO
	// AdmitSLO dispatches by priority class with aging, earliest deadline
	// first within a class, shortest job (by work hint) as tie-break, and
	// enforces per-tenant token-bucket rate limits at submit.
	AdmitSLO = server.AdmitSLO
)

// Built-in priority class names (highest priority first); the default
// class for jobs that leave JobHint.Class empty is ClassStandard.
const (
	ClassInteractive = server.ClassInteractive
	ClassStandard    = server.ClassStandard
	ClassBatch       = server.ClassBatch
)

// CacheLevel describes one level of a machine's cache hierarchy, from the
// outermost shared caches to the innermost private ones.
type CacheLevel struct {
	// Fanout is the number of caches at this level under each cache of
	// the previous level.
	Fanout int
	// CapacityBytes is the per-cache capacity.
	CapacityBytes int64
}

type config struct {
	scheduler   Scheduler
	machine     *topology.Machine
	seed        uint64
	traceCap    int
	frCap       int
	noWatchdog  bool
	wd          WatchdogConfig
	maxInFlight int
	maxQueue    int
	admission   string
	tenantRate  float64
	tenantBurst float64
	err         error
}

// Option configures NewPool.
type Option func(*config)

// WithScheduler selects the scheduling algorithm (default WorkStealing).
func WithScheduler(s Scheduler) Option {
	return func(c *config) { c.scheduler = s }
}

// WithWorkers creates a flat machine of n workers sharing one cache. Use
// WithHierarchy to describe real cache topologies.
func WithWorkers(n int) Option {
	return func(c *config) {
		if n <= 0 {
			c.err = fmt.Errorf("adws: worker count %d must be positive", n)
			return
		}
		c.machine = topology.Flat(n, 32<<20, 1<<20)
	}
}

// WithHierarchy declares the machine's cache hierarchy: levels from the
// outermost shared caches down to the private per-worker caches (the last
// level); one worker is created per private cache. numaSplit names the
// level whose caches each own a NUMA node (0 for a single node).
func WithHierarchy(levels []CacheLevel, numaSplit int) Option {
	return func(c *config) {
		ls := make([]topology.Level, len(levels))
		for i, l := range levels {
			ls[i] = topology.Level{Fanout: l.Fanout, Capacity: l.CapacityBytes}
		}
		m, err := topology.New("user", ls, numaSplit)
		if err != nil {
			c.err = err
			return
		}
		c.machine = m
	}
}

// WithSeed fixes the victim-selection seed (default 1).
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// WithTracing enables the scheduler event tracer with the given per-worker
// ring capacity in events (<= 0 uses a default of 256k events per worker).
// Retrieve the tracer with Pool.Tracer() after the traced Runs complete.
// Without this option tracing costs nothing beyond one nil check per event
// site.
func WithTracing(eventsPerWorker int) Option {
	return func(c *config) {
		c.traceCap = eventsPerWorker
		if c.traceCap <= 0 {
			c.traceCap = trace.DefaultCapacity
		}
	}
}

// WithFlightRecorder sets the per-worker flight-recorder ring capacity
// in events. The recorder is ON BY DEFAULT (capacity 4096 per worker);
// this option only resizes it. A negative capacity disables the recorder
// entirely — the watchdog then still counts triggers but dumps nothing.
// Unlike WithTracing the recorder keeps only shallow task spans (spawn
// depth <= obs.DefaultDepthLimit) plus every steal, migration, park,
// wake, and boundary event, which is what keeps its always-on cost near
// the nil-tracer floor. See docs/OBSERVABILITY.md.
func WithFlightRecorder(eventsPerWorker int) Option {
	return func(c *config) { c.frCap = eventsPerWorker }
}

// WithWatchdog overrides the stall/SLO watchdog's configuration (stall
// threshold, dump directory, trigger observer). The watchdog is ON BY
// DEFAULT with obs defaults; zero fields keep them.
func WithWatchdog(cfg WatchdogConfig) Option {
	return func(c *config) { c.wd = cfg }
}

// WithoutWatchdog disables the watchdog sampling goroutine.
func WithoutWatchdog() Option {
	return func(c *config) { c.noWatchdog = true }
}

// WithAdmission configures the job-serving admission control: the maximum
// number of concurrently running jobs and the depth of the FIFO admission
// queue beyond which Submit fast-rejects with ErrOverloaded. Zero values
// keep the defaults (one running job per worker; queue 4× that).
func WithAdmission(maxInFlight, maxQueue int) Option {
	return func(c *config) {
		if maxInFlight < 0 || maxQueue < 0 {
			c.err = fmt.Errorf("adws: admission limits (%d, %d) must not be negative",
				maxInFlight, maxQueue)
			return
		}
		c.maxInFlight = maxInFlight
		c.maxQueue = maxQueue
	}
}

// WithAdmissionPolicy selects the admission policy: AdmitFIFO (default)
// or AdmitSLO. Under AdmitSLO, jobs declare a priority class and
// optional tenant via JobHint; dispatch order is class priority with
// aging, then earliest deadline, then smallest work hint.
func WithAdmissionPolicy(policy string) Option {
	return func(c *config) {
		switch policy {
		case AdmitFIFO, AdmitSLO:
			c.admission = policy
		default:
			c.err = fmt.Errorf("adws: unknown admission policy %q", policy)
		}
	}
}

// WithTenantRateLimit bounds each tenant's submit rate under AdmitSLO:
// tenants accrue rate tokens/second up to burst, one token per admitted
// job; an empty bucket fast-rejects with ErrRateLimited. rate <= 0
// disables limiting (the default); burst <= 0 defaults to max(1, rate).
func WithTenantRateLimit(rate, burst float64) Option {
	return func(c *config) {
		c.tenantRate = rate
		c.tenantBurst = burst
	}
}

// Pool is a running worker pool. Create one per process (or per disjoint
// machine partition), reuse it across computations, and Close it when
// done.
type Pool struct {
	p      *runtime.Pool
	srv    *server.Server
	tracer *trace.Tracer
	reg    *MetricsRegistry
	flight *obs.Recorder
	wd     *obs.Watchdog
}

// NewPool starts a pool. Without options it runs conventional work
// stealing over GOMAXPROCS workers.
func NewPool(opts ...Option) (*Pool, error) {
	cfg := config{seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.err != nil {
		return nil, cfg.err
	}
	if cfg.machine == nil {
		cfg.machine = topology.Flat(gort.GOMAXPROCS(0), 32<<20, 1<<20)
	}
	var tr *trace.Tracer
	if cfg.traceCap > 0 {
		tr = trace.New(cfg.machine.NumWorkers(), cfg.traceCap)
	}
	var fr *obs.Recorder
	if cfg.frCap >= 0 {
		fr = obs.NewRecorder(obs.Config{
			Workers:  cfg.machine.NumWorkers(),
			Capacity: cfg.frCap,
		})
	}
	reg := metrics.NewRegistry()
	p := runtime.NewPool(runtime.Config{
		Machine:  cfg.machine,
		Policy:   cfg.scheduler,
		Seed:     cfg.seed,
		Tracer:   tr,
		Flight:   fr,
		Registry: reg,
	})
	srv := server.New(p, server.Config{
		MaxInFlight:     cfg.maxInFlight,
		MaxQueue:        cfg.maxQueue,
		AdmissionPolicy: cfg.admission,
		TenantRate:      cfg.tenantRate,
		TenantBurst:     cfg.tenantBurst,
		Registry:        reg,
	})
	pool := &Pool{p: p, srv: srv, tracer: tr, reg: reg, flight: fr}
	if !cfg.noWatchdog {
		pool.wd = obs.NewWatchdog(fr, obs.Signals{
			Sched:            p.SchedSnapshot,
			QueuedJobs:       func() int { q, _ := srv.InFlight(); return q },
			OldestQueueAgeNS: func() int64 { return int64(srv.OldestQueueAge()) },
			DeadlineExpired:  srv.DeadlineExpired,
			SLOBurn:          burnSignal(srv),
		}, cfg.wd)
		pool.wd.Start()
		reasons := obs.Reasons()
		reg.CounterMultiFunc("adws_watchdog_triggers_total",
			"Watchdog firings by reason (worker_stall, deadline_burst, slo_burn).",
			func() []metrics.MultiLabeled {
				t := pool.wd.Triggers()
				out := make([]metrics.MultiLabeled, len(reasons))
				for i, r := range reasons {
					out[i] = metrics.MultiLabeled{
						Labels: []metrics.Label{{Name: "reason", Value: r}},
						Value:  float64(t[r]),
					}
				}
				return out
			})
	}
	if fr != nil {
		reg.CounterFunc("adws_flight_recorder_drops_total",
			"Flight-recorder events lost to ring wraparound (its normal steady state).",
			func() float64 { return float64(fr.Drops()) })
	}
	return pool, nil
}

// burnSignal builds the watchdog's SLO-burn closure: the fraction of
// jobs that reached a terminal outcome since the previous sample and
// expired their deadline. Only the watchdog goroutine calls it, so the
// previous-sample state needs no locking.
func burnSignal(srv *server.Server) func() float64 {
	var lastExp, lastDone int64
	return func() float64 {
		exp := srv.DeadlineExpired()
		c := srv.Counters()
		done := c.Completed + c.Failed + c.Canceled + c.Rejected
		dExp, dDone := exp-lastExp, done-lastDone
		lastExp, lastDone = exp, done
		if dExp <= 0 || dDone <= 0 {
			return 0
		}
		if dExp >= dDone {
			return 1
		}
		return float64(dExp) / float64(dDone)
	}
}

// Run executes fn as the root task and blocks until every transitively
// spawned and awaited task completes. Concurrent Run calls are safe but
// serialize, each executing over the whole pool; use Submit to serve
// independent computations concurrently. Run panics if the pool is
// closed.
func (p *Pool) Run(fn func(*Ctx)) { p.p.Run(fn) }

// Submit admits fn as a new job on the pool's job-serving layer and
// returns without waiting. Submission is goroutine-safe: many clients may
// share one pool. Jobs pass a bounded FIFO admission queue (ErrOverloaded
// fast-reject when full, ErrDraining during Drain, ErrPoolClosed after
// Close; see WithAdmission) and are placed as root task groups on a
// worker sub-range divided among the in-flight jobs in proportion to
// their Work hints — the same hint-guided division ADWS applies to
// sibling tasks. fn's returned error (or recovered panic) becomes
// Job.Err; ctx and the hint deadline cancel the job while it waits in
// the queue (running jobs are not preempted — bodies may watch
// Job.Context to stop cooperatively).
//
// A single in-flight job over the full pool schedules exactly like Run;
// see docs/SERVER.md for the determinism caveat under concurrent jobs.
func (p *Pool) Submit(ctx context.Context, fn func(*Ctx) error, h JobHint) (*Job, error) {
	return p.srv.Submit(ctx, fn, h)
}

// Drain stops admitting jobs and waits until every queued and running
// job completed, or ctx is done. Call it before Close for a graceful
// shutdown.
func (p *Pool) Drain(ctx context.Context) error { return p.srv.Drain(ctx) }

// Job returns a submitted job by ID, if still retained (terminal jobs are
// kept up to a bounded history).
func (p *Pool) Job(id int64) (*Job, bool) { return p.srv.Job(id) }

// Jobs returns the retained jobs in submission order.
func (p *Pool) Jobs() []*Job { return p.srv.Jobs() }

// InFlight returns the current admission queue depth and running-job
// count.
func (p *Pool) InFlight() (queued, running int) { return p.srv.InFlight() }

// NumWorkers returns the pool size.
func (p *Pool) NumWorkers() int { return p.p.NumWorkers() }

// Scheduler returns the pool's scheduling algorithm.
func (p *Pool) Scheduler() Scheduler { return p.p.Policy() }

// Stats returns scheduling counters accumulated since pool creation.
func (p *Pool) Stats() Stats { return p.p.Stats() }

// Counters returns the pool's monotonic admission counters.
func (p *Pool) Counters() Counters { return p.srv.Counters() }

// AdmissionPolicy returns the pool's effective admission policy
// (AdmitFIFO or AdmitSLO).
func (p *Pool) AdmissionPolicy() string { return p.srv.Config().AdmissionPolicy }

// ClassCounters returns per-priority-class admission counters.
func (p *Pool) ClassCounters() map[string]Counters { return p.srv.ClassCounters() }

// QueuedByClass returns the live admission-queue depth per class.
func (p *Pool) QueuedByClass() map[string]int { return p.srv.QueuedByClass() }

// JainByClass returns the Jain fairness index over per-tenant mean
// end-to-end latency within each class (1 = perfectly fair; classes
// without completed jobs are omitted).
func (p *Pool) JainByClass() map[string]float64 { return p.srv.JainByClass() }

// Tracer returns the pool's event tracer, or nil unless WithTracing was
// given. Read it (Events, Summarize, WriteChromeTrace) only while no Run
// is active.
func (p *Pool) Tracer() *Tracer { return p.tracer }

// FlightRecorder returns the pool's always-on flight recorder, or nil if
// WithFlightRecorder disabled it.
func (p *Pool) FlightRecorder() *FlightRecorder { return p.flight }

// Watchdog returns the pool's stall/SLO watchdog, or nil if
// WithoutWatchdog disabled it.
func (p *Pool) Watchdog() *Watchdog { return p.wd }

// SchedSnapshot returns a live view of every worker's scheduler state.
// Safe to call at any time, including under full load: rows are
// assembled from lock-free reads and are individually accurate but not
// mutually atomic.
func (p *Pool) SchedSnapshot() SchedSnapshot { return p.p.SchedSnapshot() }

// DumpFlight cuts the flight recorder into a dump tagged with reason,
// attaching a fresh scheduler snapshot. It returns nil when the recorder
// is disabled. Dumping is destructive — the returned window is consumed
// from the rings — and safe while the pool runs.
func (p *Pool) DumpFlight(reason string) *FlightDump {
	if p.flight == nil {
		return nil
	}
	snap := p.p.SchedSnapshot()
	return p.flight.Dump(reason, -1, &snap)
}

// Metrics returns the pool's metrics registry. Unlike the tracer it is
// always on (recording is lock-free and allocation-free; see
// docs/METRICS.md) and may be rendered with WriteText at any time,
// including under concurrent job load.
func (p *Pool) Metrics() *MetricsRegistry { return p.reg }

// Close stops admission and the workers. Outstanding Runs and jobs must
// have completed (Drain first for a graceful shutdown); Run and Submit
// after Close panic and error respectively.
func (p *Pool) Close() {
	if p.wd != nil {
		p.wd.Stop()
	}
	p.srv.Close()
	p.p.Close()
}
