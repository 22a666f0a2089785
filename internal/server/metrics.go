package server

import (
	"context"
	"errors"

	"github.com/parlab/adws/internal/metrics"
)

// jobMetrics is the server's latency and admission recording surface,
// registered by New on Config.Registry. The server has no per-worker
// recorder identity — admission runs on client goroutines — so histograms
// are recorded via RecordAny and a handful of shards suffices. The class*
// maps add a per-priority-class breakdown of the same three latencies,
// keyed by every class a job can carry (Submit rejects unknown classes).
// The admission outcome counts are not here: the per-class Counters are
// their one store, and the families render from it.
type jobMetrics struct {
	// queueWait records submit → dispatch for jobs that reached Running.
	queueWait *metrics.Histogram
	// service records dispatch → terminal state for jobs that ran.
	service *metrics.Histogram
	// e2e records submit → terminal state for every job, including jobs
	// canceled or expired while still queued.
	e2e *metrics.Histogram
	// expired counts deadline-expired jobs: canceled while queued because
	// the deadline (or submission context) expired before dispatch, or
	// rejected at submit because the deadline had already passed.
	expired *metrics.Counter
	// rateLimited counts ErrRateLimited fast-rejects (AdmitSLO tenant
	// token buckets).
	rateLimited *metrics.Counter

	classQueueWait, classService, classE2E map[string]*metrics.Histogram
}

// noteReject counts an admission fast-reject of class cs (nil: the
// class was unknown); err is the rejection cause. Caller holds s.mu.
func (s *Server) noteReject(cs *classState, err error) {
	if cs == nil {
		s.unknownRejects++
	} else {
		cs.ctrs.Rejected++
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.expired.Inc()
	case errors.Is(err, ErrRateLimited):
		s.metrics.rateLimited.Inc()
	}
}

// noteQueueExpiry records a job canceled while queued; err is the
// context error that canceled it.
func (s *Server) noteQueueExpiry(err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.metrics.expired.Inc()
	}
}

// noteDispatch records j's queue wait. Caller holds s.mu (the job
// timestamps are mu-guarded); recording itself is lock-free.
func (s *Server) noteDispatch(j *Job) {
	wait := int64(j.started.Sub(j.submitted))
	s.metrics.queueWait.RecordAny(wait)
	s.metrics.classQueueWait[j.hint.Class].RecordAny(wait)
}

// noteComplete records j's service and end-to-end latency at terminal
// transition. Jobs that never ran (canceled or rejected from the queue)
// have no service span but still count end-to-end. Caller holds s.mu.
func (s *Server) noteComplete(j *Job) {
	m := &s.metrics
	if !j.started.IsZero() {
		service := int64(j.finished.Sub(j.started))
		m.service.RecordAny(service)
		m.classService[j.hint.Class].RecordAny(service)
	}
	e2e := int64(j.finished.Sub(j.submitted))
	m.e2e.RecordAny(e2e)
	m.classE2E[j.hint.Class].RecordAny(e2e)
}

// serverHistShards is the shard count job-latency histograms need:
// recording happens under or next to s.mu, so contention is already
// bounded and a few shards only serve to absorb RecordAny bursts.
const serverHistShards = 4

// registerMetrics registers the server's families on r: the adws_job_*
// latency histograms and their per-class adws_jobs_*_seconds{class}
// twins over DefaultClasses, the admission counters, and the queue,
// outcome and fairness families that read the server's state under s.mu
// at render time.
func (s *Server) registerMetrics(r *metrics.Registry) jobMetrics {
	classes := DefaultClasses()
	m := jobMetrics{
		queueWait: r.Histogram("adws_job_queue_wait_seconds",
			"Job admission latency: submit to dispatch.", serverHistShards),
		service: r.Histogram("adws_job_service_seconds",
			"Job service time: dispatch to terminal state.", serverHistShards),
		e2e: r.Histogram("adws_job_e2e_seconds",
			"Job end-to-end latency: submit to terminal state.", serverHistShards),
		expired: r.Counter("adws_jobs_deadline_expired_total",
			"Jobs whose deadline expired while queued or already at submit."),
		rateLimited: r.Counter("adws_jobs_rate_limited_total",
			"Jobs fast-rejected because their tenant's token bucket was empty."),
		classQueueWait: r.HistogramVec("adws_jobs_queue_wait_seconds",
			"Per-class job admission latency: submit to dispatch.",
			"class", classes, serverHistShards),
		classService: r.HistogramVec("adws_jobs_service_seconds",
			"Per-class job service time: dispatch to terminal state.",
			"class", classes, serverHistShards),
		classE2E: r.HistogramVec("adws_jobs_e2e_seconds",
			"Per-class job end-to-end latency: submit to terminal state.",
			"class", classes, serverHistShards),
	}
	r.GaugeFunc("adws_jobs_queued", "Jobs waiting in the admission queue.",
		func() float64 { q, _ := s.InFlight(); return float64(q) })
	r.GaugeFunc("adws_jobs_running", "Jobs currently running.",
		func() float64 { _, run := s.InFlight(); return float64(run) })
	counter := func(name, help string, f func(Counters) int64) {
		r.CounterFunc(name, help, func() float64 { return float64(f(s.Counters())) })
	}
	counter("adws_jobs_submitted_total", "Jobs admitted (queued or dispatched).",
		func(c Counters) int64 { return c.Submitted })
	counter("adws_jobs_rejected_total",
		"Jobs fast-rejected at admission (queue full, rate limit, expired deadline).",
		func(c Counters) int64 { return c.Rejected })
	counter("adws_jobs_completed_total", "Jobs that reached Done.",
		func(c Counters) int64 { return c.Completed })
	counter("adws_jobs_failed_total", "Jobs that reached Failed.",
		func(c Counters) int64 { return c.Failed })
	counter("adws_jobs_canceled_total", "Jobs canceled before or while running.",
		func(c Counters) int64 { return c.Canceled })

	// The class list is fixed, so the label sets are stable across
	// renders; the Jain gauge omits classes without completed jobs.
	byClass := func(cl string) []metrics.Label { return []metrics.Label{{Name: "class", Value: cl}} }
	r.GaugeMultiFunc("adws_jobs_queued_by_class",
		"Jobs waiting in the admission queue, by priority class.",
		func() []metrics.MultiLabeled {
			queued := s.QueuedByClass()
			out := make([]metrics.MultiLabeled, len(classes))
			for i, cl := range classes {
				out[i] = metrics.MultiLabeled{Labels: byClass(cl), Value: float64(queued[cl])}
			}
			return out
		})
	r.CounterMultiFunc("adws_jobs_outcomes_total",
		"Job admission outcomes by priority class.",
		func() []metrics.MultiLabeled {
			ctrs := s.ClassCounters()
			out := make([]metrics.MultiLabeled, 0, 5*len(classes))
			for _, cl := range classes {
				cc := ctrs[cl]
				for _, o := range []struct {
					outcome string
					n       int64
				}{
					{"submitted", cc.Submitted}, {"rejected", cc.Rejected},
					{"completed", cc.Completed}, {"failed", cc.Failed},
					{"canceled", cc.Canceled},
				} {
					out = append(out, metrics.MultiLabeled{
						Labels: append(byClass(cl), metrics.Label{Name: "outcome", Value: o.outcome}),
						Value:  float64(o.n),
					})
				}
			}
			return out
		})
	r.GaugeMultiFunc("adws_jobs_fairness_jain",
		"Jain fairness index over per-tenant mean e2e latency, by class (1 = fair).",
		func() []metrics.MultiLabeled {
			jain := s.JainByClass()
			out := make([]metrics.MultiLabeled, 0, len(jain))
			for _, cl := range classes {
				if v, ok := jain[cl]; ok {
					out = append(out, metrics.MultiLabeled{Labels: byClass(cl), Value: v})
				}
			}
			return out
		})
	return m
}

// DeadlineExpired returns the number of jobs whose deadline expired,
// queued or at submit (adws_jobs_deadline_expired_total).
func (s *Server) DeadlineExpired() int64 { return s.metrics.expired.Value() }
