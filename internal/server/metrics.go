package server

import (
	"context"
	"errors"

	"github.com/parlab/adws/internal/metrics"
)

// Metrics is the server's latency and admission recording surface. A nil
// *Metrics in Config disables recording at one pointer check per site
// (the runtime's tracer/metrics contract); when non-nil every scalar
// field must be non-nil. The server has no per-worker recorder identity —
// admission runs on client goroutines — so histograms are recorded via
// RecordAny and a handful of shards suffices.
//
// The Class* maps, when non-nil, add a per-priority-class breakdown of
// the same three latencies (the adws_jobs_*_seconds{class=...} families);
// jobs whose class has no map entry record only the aggregate.
type Metrics struct {
	// QueueWait records submit → dispatch for jobs that reached Running.
	QueueWait *metrics.Histogram
	// Service records dispatch → terminal state for jobs that ran.
	Service *metrics.Histogram
	// E2E records submit → terminal state for every job, including jobs
	// canceled or expired while still queued.
	E2E *metrics.Histogram
	// Rejected counts ErrOverloaded fast-rejects.
	Rejected *metrics.Counter
	// Expired counts deadline-expired jobs: canceled while queued because
	// the deadline (or submission context) expired before dispatch, or
	// rejected at submit because the deadline had already passed.
	Expired *metrics.Counter
	// RateLimited counts ErrRateLimited fast-rejects (AdmitSLO tenant
	// token buckets).
	RateLimited *metrics.Counter

	// ClassQueueWait, ClassService, ClassE2E are the per-class breakdown,
	// keyed by class name (see Metrics doc).
	ClassQueueWait, ClassService, ClassE2E map[string]*metrics.Histogram
}

// check panics on a partially populated Metrics, at New time rather than
// at the first nil-field record site.
func (m *Metrics) check() {
	if m.QueueWait == nil || m.Service == nil || m.E2E == nil ||
		m.Rejected == nil || m.Expired == nil || m.RateLimited == nil {
		panic("server: Metrics fields must all be non-nil")
	}
}

// noteReject records an admission fast-reject; err is the rejection
// cause.
func (s *Server) noteReject(err error) {
	m := s.metrics
	if m == nil {
		return
	}
	m.Rejected.Inc()
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		m.Expired.Inc()
	case errors.Is(err, ErrRateLimited):
		m.RateLimited.Inc()
	}
}

// noteQueueExpiry records a job canceled while queued; err is the
// context error that canceled it.
func (s *Server) noteQueueExpiry(err error) {
	if m := s.metrics; m != nil && errors.Is(err, context.DeadlineExceeded) {
		m.Expired.Inc()
	}
}

// noteDispatch records j's queue wait. Caller holds s.mu (the job
// timestamps are mu-guarded); recording itself is lock-free.
func (s *Server) noteDispatch(j *Job) {
	m := s.metrics
	if m == nil {
		return
	}
	wait := int64(j.started.Sub(j.submitted))
	m.QueueWait.RecordAny(wait)
	if h := m.ClassQueueWait[j.hint.Class]; h != nil {
		h.RecordAny(wait)
	}
}

// noteComplete records j's service and end-to-end latency at terminal
// transition. Jobs that never ran (canceled or rejected from the queue)
// have no service span but still count end-to-end. Caller holds s.mu.
func (s *Server) noteComplete(j *Job) {
	m := s.metrics
	if m == nil {
		return
	}
	if !j.started.IsZero() {
		service := int64(j.finished.Sub(j.started))
		m.Service.RecordAny(service)
		if h := m.ClassService[j.hint.Class]; h != nil {
			h.RecordAny(service)
		}
	}
	e2e := int64(j.finished.Sub(j.submitted))
	m.E2E.RecordAny(e2e)
	if h := m.ClassE2E[j.hint.Class]; h != nil {
		h.RecordAny(e2e)
	}
}

// serverHistShards is the shard count job-latency histograms need:
// recording happens under or next to s.mu, so contention is already
// bounded and a few shards only serve to absorb RecordAny bursts.
const serverHistShards = 4

// NewMetrics builds a fully populated Metrics recording into histograms
// and counters registered on r under the standard adws_job_* names, plus
// the per-class adws_jobs_*_seconds{class=...} families over
// DefaultClasses.
func NewMetrics(r *metrics.Registry) *Metrics {
	classes := DefaultClasses()
	return &Metrics{
		QueueWait: r.Histogram("adws_job_queue_wait_seconds",
			"Job admission latency: submit to dispatch.", serverHistShards),
		Service: r.Histogram("adws_job_service_seconds",
			"Job service time: dispatch to terminal state.", serverHistShards),
		E2E: r.Histogram("adws_job_e2e_seconds",
			"Job end-to-end latency: submit to terminal state.", serverHistShards),
		Rejected: r.Counter("adws_jobs_rejected_total",
			"Jobs fast-rejected at admission (queue full, rate limit, expired deadline)."),
		Expired: r.Counter("adws_jobs_deadline_expired_total",
			"Jobs whose deadline expired while queued or already at submit."),
		RateLimited: r.Counter("adws_jobs_rate_limited_total",
			"Jobs fast-rejected because their tenant's token bucket was empty."),
		ClassQueueWait: r.HistogramVec("adws_jobs_queue_wait_seconds",
			"Per-class job admission latency: submit to dispatch.",
			"class", classes, serverHistShards),
		ClassService: r.HistogramVec("adws_jobs_service_seconds",
			"Per-class job service time: dispatch to terminal state.",
			"class", classes, serverHistShards),
		ClassE2E: r.HistogramVec("adws_jobs_e2e_seconds",
			"Per-class job end-to-end latency: submit to terminal state.",
			"class", classes, serverHistShards),
	}
}
