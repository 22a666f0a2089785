package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/parlab/adws/internal/runtime"
	"github.com/parlab/adws/internal/topology"
)

// newMetricsServer builds a server and returns it with its job-latency
// and admission metrics.
func newMetricsServer(t *testing.T, workers int, cfg Config) (*Server, *jobMetrics) {
	t.Helper()
	p := runtime.NewPool(runtime.Config{
		Machine: topology.Flat(workers, 32<<20, 1<<20),
		Policy:  runtime.ADWS,
		Seed:    42,
	})
	t.Cleanup(p.Close)
	s := New(p, cfg)
	t.Cleanup(s.Close)
	return s, &s.metrics
}

// TestMetricsRecordJobLifecycle pins the three job-latency histograms:
// every completed job records one queue-wait, one service, and one e2e
// sample, and the spans nest (e2e covers service covers nothing shorter
// than zero).
func TestMetricsRecordJobLifecycle(t *testing.T) {
	s, m := newMetricsServer(t, 4, Config{})
	const jobs = 5
	for i := 0; i < jobs; i++ {
		j, err := s.Submit(context.Background(), noop, Hint{Work: 1})
		if err != nil {
			t.Fatal(err)
		}
		wait(t, j)
	}

	qw, sv, e2e := m.queueWait.Snapshot(), m.service.Snapshot(), m.e2e.Snapshot()
	if qw.Count != jobs || sv.Count != jobs || e2e.Count != jobs {
		t.Errorf("histogram counts queue_wait=%d service=%d e2e=%d, want %d each",
			qw.Count, sv.Count, e2e.Count, jobs)
	}
	// Per job e2e = queue wait + service, so the sums must nest.
	if e2e.Sum < sv.Sum {
		t.Errorf("e2e sum %dns < service sum %dns", e2e.Sum, sv.Sum)
	}
	if qw.Sum < 0 || sv.Sum <= 0 {
		t.Errorf("non-positive spans: queue_wait sum %dns, service sum %dns", qw.Sum, sv.Sum)
	}
	if s.Counters().Rejected != 0 || m.expired.Value() != 0 {
		t.Errorf("spurious failure counters: rejected=%d expired=%d",
			s.Counters().Rejected, m.expired.Value())
	}
}

// TestMetricsRejectAndExpiry pins the admission-failure counters and the
// rule that a job which never dispatched records e2e but no service or
// queue-wait sample.
func TestMetricsRejectAndExpiry(t *testing.T) {
	s, m := newMetricsServer(t, 2, Config{MaxInFlight: 1, MaxQueue: 1})
	release := make(chan struct{})
	b := blocker(t, s, release)

	// Queue slot taken by a job whose deadline expires while queued.
	expiring, err := s.Submit(context.Background(), noop,
		Hint{Deadline: time.Now().Add(20 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	// Queue now full: the next submit fast-rejects.
	if _, err := s.Submit(context.Background(), noop, Hint{}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Submit over full queue: err = %v, want ErrOverloaded", err)
	}
	wait(t, expiring)
	close(release)
	wait(t, b)

	if got := s.Counters().Rejected; got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
	if got := m.expired.Value(); got != 1 {
		t.Errorf("expired counter = %d, want 1", got)
	}
	// The blocker dispatched and completed; the expired job only counts
	// end-to-end. The reject never became a job at all.
	if got := m.service.Snapshot().Count; got != 1 {
		t.Errorf("service count = %d, want 1 (only the dispatched job)", got)
	}
	if got := m.queueWait.Snapshot().Count; got != 1 {
		t.Errorf("queue-wait count = %d, want 1 (only the dispatched job)", got)
	}
	if got := m.e2e.Snapshot().Count; got != 2 {
		t.Errorf("e2e count = %d, want 2 (dispatched + expired)", got)
	}
}
