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
type jobMetrics struct {
	// queueWait records submit → dispatch for jobs that reached Running.
	queueWait *metrics.Histogram
	// service records dispatch → terminal state for jobs that ran.
	service *metrics.Histogram
	// e2e records submit → terminal state for every job, including jobs
	// canceled or expired while still queued.
	e2e *metrics.Histogram
	// rejected counts admission fast-rejects.
	rejected *metrics.Counter
	// expired counts deadline-expired jobs: canceled while queued because
	// the deadline (or submission context) expired before dispatch, or
	// rejected at submit because the deadline had already passed.
	expired *metrics.Counter
	// rateLimited counts ErrRateLimited fast-rejects (AdmitSLO tenant
	// token buckets).
	rateLimited *metrics.Counter

	classQueueWait, classService, classE2E map[string]*metrics.Histogram
}

// noteReject records an admission fast-reject; err is the rejection
// cause.
func (s *Server) noteReject(err error) {
	s.metrics.rejected.Inc()
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

// newJobMetrics registers the standard adws_job_* families on r, plus the
// per-class adws_jobs_*_seconds{class=...} families over DefaultClasses.
func newJobMetrics(r *metrics.Registry) jobMetrics {
	classes := DefaultClasses()
	return jobMetrics{
		queueWait: r.Histogram("adws_job_queue_wait_seconds",
			"Job admission latency: submit to dispatch.", serverHistShards),
		service: r.Histogram("adws_job_service_seconds",
			"Job service time: dispatch to terminal state.", serverHistShards),
		e2e: r.Histogram("adws_job_e2e_seconds",
			"Job end-to-end latency: submit to terminal state.", serverHistShards),
		rejected: r.Counter("adws_jobs_rejected_total",
			"Jobs fast-rejected at admission (queue full, rate limit, expired deadline)."),
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
}

// DeadlineExpired returns the number of jobs whose deadline expired,
// queued or at submit (adws_jobs_deadline_expired_total).
func (s *Server) DeadlineExpired() int64 { return s.metrics.expired.Value() }
