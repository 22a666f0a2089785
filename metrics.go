package adws

import (
	"strconv"
	"sync"

	"github.com/parlab/adws/internal/metrics"
	"github.com/parlab/adws/internal/obs"
	"github.com/parlab/adws/internal/server"
)

// MetricsRegistry renders the pool's metrics as Prometheus text
// exposition (format 0.0.4): the scheduling counters, the admission
// state, and the latency histograms recorded by the runtime (park,
// steal-probe, wake-to-run) and the job server (queue-wait, service,
// end-to-end). Obtain a pool's registry with Pool.Metrics and render
// with WriteText; see docs/METRICS.md for the metric catalogue.
type MetricsRegistry = metrics.Registry

// registerPoolMetrics registers the render-time families: every metric
// name the daemon's hand-rolled /metrics used to emit (kept stable), the
// per-worker vectors (now with proper TYPE headers), and the admission
// outcome counters. All of them read from one snapshot taken per render
// by the OnRender hook, so adws_jobs_queued and adws_jobs_running come
// from a single InFlight() call and the worker vectors from a single
// Stats() call.
func registerPoolMetrics(reg *metrics.Registry, p *Pool) {
	var mu sync.Mutex
	var st Stats
	var queued, running int
	var ctrs server.Counters
	var queuedByClass map[string]int
	var classCtrs map[string]server.Counters
	var jain map[string]float64
	reg.OnRender(func() {
		s := p.p.Stats()
		q, r := p.srv.InFlight()
		c := p.srv.Counters()
		qbc := p.srv.QueuedByClass()
		cc := p.srv.ClassCounters()
		jn := p.srv.JainByClass()
		mu.Lock()
		st, queued, running, ctrs = s, q, r, c
		queuedByClass, classCtrs, jain = qbc, cc, jn
		mu.Unlock()
	})
	get := func(f func() float64) func() float64 {
		return func() float64 {
			mu.Lock()
			defer mu.Unlock()
			return f()
		}
	}
	reg.CounterFunc("adws_tasks_total", "Tasks executed.",
		get(func() float64 { return float64(st.Tasks) }))
	reg.CounterFunc("adws_steals_total", "Successful steals.",
		get(func() float64 { return float64(st.Steals) }))
	reg.CounterFunc("adws_steal_attempts_total", "Steal victim probes.",
		get(func() float64 { return float64(st.StealAttempts) }))
	reg.CounterFunc("adws_migrations_total", "Deterministic task migrations.",
		get(func() float64 { return float64(st.Migrations) }))
	reg.CounterFunc("adws_parks_total", "Worker blocking parks.",
		get(func() float64 { return float64(st.Parks) }))
	reg.CounterFunc("adws_wakes_total", "Wake tokens consumed by workers.",
		get(func() float64 { return float64(st.Wakes) }))
	reg.CounterFunc("adws_busy_seconds_total", "Wall-clock task-execution time summed over workers.",
		get(func() float64 { return float64(st.BusyNS) / 1e9 }))
	reg.CounterFunc("adws_idle_seconds_total", "Wall-clock work-search time summed over workers.",
		get(func() float64 { return float64(st.IdleNS) / 1e9 }))
	reg.GaugeFunc("adws_workers", "Pool worker count.",
		func() float64 { return float64(p.p.NumWorkers()) })
	workerVec := func(field func(WorkerStats) int64) func() []metrics.Labeled {
		return func() []metrics.Labeled {
			mu.Lock()
			defer mu.Unlock()
			out := make([]metrics.Labeled, len(st.PerWorker))
			for i, ws := range st.PerWorker {
				out[i] = metrics.Labeled{
					Label: strconv.Itoa(ws.Worker),
					Value: float64(field(ws)),
				}
			}
			return out
		}
	}
	reg.CounterVecFunc("adws_worker_tasks_total", "Tasks executed per worker.",
		"worker", workerVec(func(ws WorkerStats) int64 { return ws.Tasks }))
	reg.CounterVecFunc("adws_worker_steals_total", "Successful steals per worker.",
		"worker", workerVec(func(ws WorkerStats) int64 { return ws.Steals }))
	reg.GaugeFunc("adws_jobs_queued", "Jobs waiting in the admission queue.",
		get(func() float64 { return float64(queued) }))
	reg.GaugeFunc("adws_jobs_running", "Jobs currently running.",
		get(func() float64 { return float64(running) }))
	reg.CounterFunc("adws_jobs_submitted_total", "Jobs admitted (queued or dispatched).",
		get(func() float64 { return float64(ctrs.Submitted) }))
	reg.CounterFunc("adws_jobs_completed_total", "Jobs that reached Done.",
		get(func() float64 { return float64(ctrs.Completed) }))
	reg.CounterFunc("adws_jobs_failed_total", "Jobs that reached Failed.",
		get(func() float64 { return float64(ctrs.Failed) }))
	reg.CounterFunc("adws_jobs_canceled_total", "Jobs canceled before or while running.",
		get(func() float64 { return float64(ctrs.Canceled) }))
	if wd := p.wd; wd != nil {
		reasons := obs.Reasons()
		reg.CounterVecFunc("adws_watchdog_triggers_total",
			"Watchdog firings by reason (worker_stall, deadline_burst, slo_burn).",
			"reason", func() []metrics.Labeled {
				t := wd.Triggers()
				out := make([]metrics.Labeled, len(reasons))
				for i, r := range reasons {
					out[i] = metrics.Labeled{Label: r, Value: float64(t[r])}
				}
				return out
			})
	}
	if fr := p.flight; fr != nil {
		reg.CounterFunc("adws_flight_recorder_drops_total",
			"Flight-recorder events lost to ring wraparound (its normal steady state).",
			func() float64 { return float64(fr.Drops()) })
	}

	// Per-priority-class breakdown. The class list is fixed at pool
	// creation, so the label sets are stable across renders; the Jain
	// gauge omits classes without completed jobs.
	classes := server.DefaultClasses()
	reg.GaugeMultiFunc("adws_jobs_queued_by_class",
		"Jobs waiting in the admission queue, by priority class.",
		func() []metrics.MultiLabeled {
			mu.Lock()
			defer mu.Unlock()
			out := make([]metrics.MultiLabeled, len(classes))
			for i, cl := range classes {
				out[i] = metrics.MultiLabeled{
					Labels: []metrics.Label{{Name: "class", Value: cl}},
					Value:  float64(queuedByClass[cl]),
				}
			}
			return out
		})
	reg.CounterMultiFunc("adws_jobs_outcomes_total",
		"Job admission outcomes by priority class.",
		func() []metrics.MultiLabeled {
			mu.Lock()
			defer mu.Unlock()
			out := make([]metrics.MultiLabeled, 0, 5*len(classes))
			for _, cl := range classes {
				cc := classCtrs[cl]
				for _, o := range []struct {
					outcome string
					n       int64
				}{
					{"submitted", cc.Submitted}, {"rejected", cc.Rejected},
					{"completed", cc.Completed}, {"failed", cc.Failed},
					{"canceled", cc.Canceled},
				} {
					out = append(out, metrics.MultiLabeled{
						Labels: []metrics.Label{
							{Name: "class", Value: cl},
							{Name: "outcome", Value: o.outcome},
						},
						Value: float64(o.n),
					})
				}
			}
			return out
		})
	reg.GaugeMultiFunc("adws_jobs_fairness_jain",
		"Jain fairness index over per-tenant mean e2e latency, by class (1 = fair).",
		func() []metrics.MultiLabeled {
			mu.Lock()
			defer mu.Unlock()
			out := make([]metrics.MultiLabeled, 0, len(jain))
			for _, cl := range classes {
				v, ok := jain[cl]
				if !ok {
					continue
				}
				out = append(out, metrics.MultiLabeled{
					Labels: []metrics.Label{{Name: "class", Value: cl}},
					Value:  v,
				})
			}
			return out
		})
}
