package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/parlab/adws/internal/runtime"
)

// qjob builds a queued job literal for direct Next ordering tests (the
// admitter reads only hint and submitted).
func qjob(h Hint, submitted time.Time) *Job {
	return &Job{hint: h, submitted: submitted}
}

// TestPriorityOrder pins the dispatch comparator: class priority first,
// EDF within a class (no deadline last), SJF by work hint as tie-break,
// then submission order.
func TestPriorityOrder(t *testing.T) {
	p := NewPriorityAdmitter(DefaultClasses(), 1, 10)
	now := time.Now()
	cases := []struct {
		name  string
		queue []*Job
		want  int
	}{
		{"class beats order", []*Job{
			qjob(Hint{Class: ClassBatch}, now),
			qjob(Hint{Class: ClassInteractive}, now),
		}, 1},
		{"EDF within class", []*Job{
			qjob(Hint{Class: ClassStandard, Deadline: now.Add(3 * time.Second)}, now),
			qjob(Hint{Class: ClassStandard, Deadline: now.Add(1 * time.Second)}, now),
			qjob(Hint{Class: ClassStandard, Deadline: now.Add(2 * time.Second)}, now),
		}, 1},
		{"deadline beats no deadline", []*Job{
			qjob(Hint{Class: ClassStandard}, now),
			qjob(Hint{Class: ClassStandard, Deadline: now.Add(time.Hour)}, now),
		}, 1},
		{"SJF tie-break", []*Job{
			qjob(Hint{Class: ClassStandard, Work: 8}, now),
			qjob(Hint{Class: ClassStandard, Work: 2}, now),
			qjob(Hint{Class: ClassStandard, Work: 4}, now),
		}, 1},
		{"stable on full tie", []*Job{
			qjob(Hint{Class: ClassBatch, Work: 1}, now),
			qjob(Hint{Class: ClassBatch, Work: 1}, now),
		}, 0},
		{"higher class still wins over earlier deadline", []*Job{
			qjob(Hint{Class: ClassBatch, Deadline: now.Add(time.Millisecond)}, now),
			qjob(Hint{Class: ClassInteractive}, now),
		}, 1},
	}
	for _, tc := range cases {
		if got := p.Next(now, tc.queue); got != tc.want {
			t.Errorf("%s: Next = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestPriorityAging pins starvation avoidance: a batch job that has
// waited two aging quanta reaches interactive level and dispatches ahead
// of a fresh interactive job only on the stable-order tie-break — i.e.
// it ties, no longer loses.
func TestPriorityAging(t *testing.T) {
	p := NewPriorityAdmitter(DefaultClasses(), 1, 10)
	p.Aging = time.Second
	now := time.Now()
	aged := qjob(Hint{Class: ClassBatch}, now.Add(-2*time.Second))
	fresh := qjob(Hint{Class: ClassInteractive}, now)
	if got := p.Next(now, []*Job{aged, fresh}); got != 0 {
		t.Errorf("aged batch vs fresh interactive: Next = %d, want 0 (tie, stable order)", got)
	}
	// One quantum of waiting only reaches standard level: still loses.
	half := qjob(Hint{Class: ClassBatch}, now.Add(-time.Second))
	if got := p.Next(now, []*Job{half, fresh}); got != 1 {
		t.Errorf("half-aged batch vs interactive: Next = %d, want 1", got)
	}
}

// TestTenantRateLimit pins the token bucket: burst admits, then
// ErrRateLimited, then refill after enough virtual time.
func TestTenantRateLimit(t *testing.T) {
	p := NewPriorityAdmitter(DefaultClasses(), 1, 100)
	p.TenantRate = 1
	p.TenantBurst = 2
	now := time.Now()
	h := Hint{Class: ClassStandard, Tenant: "alice"}
	for i := 0; i < 2; i++ {
		if err := p.Admit(h, now, 0, 0); err != nil {
			t.Fatalf("burst admit %d: %v", i, err)
		}
	}
	if err := p.Admit(h, now, 0, 0); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("over-burst admit: err = %v, want ErrRateLimited", err)
	}
	// Other tenants have their own bucket.
	if err := p.Admit(Hint{Class: ClassStandard, Tenant: "bob"}, now, 0, 0); err != nil {
		t.Fatalf("other tenant: %v", err)
	}
	// One second refills one token.
	if err := p.Admit(h, now.Add(time.Second), 0, 0); err != nil {
		t.Fatalf("post-refill admit: %v", err)
	}
	if err := p.Admit(h, now.Add(time.Second), 0, 0); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("drained again: err = %v, want ErrRateLimited", err)
	}
	// The queue bound still applies before the bucket.
	if err := p.Admit(h, now.Add(time.Hour), 100, 0); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full queue: err = %v, want ErrOverloaded", err)
	}
}

// TestSubmitClassNormalization pins class handling at submit: empty
// class becomes the default, unknown classes are rejected with
// ErrUnknownClass, and per-class counters track the effective class.
func TestSubmitClassNormalization(t *testing.T) {
	s, _ := newTestServer(t, 2, Config{})
	j, err := s.Submit(context.Background(), noop, Hint{})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j)
	if got := j.Hint().Class; got != ClassStandard {
		t.Errorf("defaulted class = %q, want %q", got, ClassStandard)
	}
	if _, err := s.Submit(context.Background(), noop, Hint{Class: "gold"}); !errors.Is(err, ErrUnknownClass) {
		t.Fatalf("unknown class: err = %v, want ErrUnknownClass", err)
	}
	b, err := s.Submit(context.Background(), noop, Hint{Class: ClassBatch})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, b)
	cc := s.ClassCounters()
	if cc[ClassStandard].Submitted != 1 || cc[ClassStandard].Completed != 1 {
		t.Errorf("standard counters = %+v", cc[ClassStandard])
	}
	if cc[ClassBatch].Submitted != 1 || cc[ClassBatch].Completed != 1 {
		t.Errorf("batch counters = %+v", cc[ClassBatch])
	}
	if c := s.Counters(); c.Rejected != 1 {
		t.Errorf("aggregate Rejected = %d, want 1 (the unknown class)", c.Rejected)
	}
}

// TestPastDeadlineRejectedSynchronously pins the bugfix for deadlines
// already in the past: Submit fails immediately with
// context.DeadlineExceeded and the job never occupies a queue slot.
func TestPastDeadlineRejectedSynchronously(t *testing.T) {
	s, _ := newTestServer(t, 2, Config{MaxInFlight: 1, MaxQueue: 1})
	_, err := s.Submit(context.Background(), noop, Hint{Deadline: time.Now().Add(-time.Second)})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("past-deadline Submit: err = %v, want context.DeadlineExceeded", err)
	}
	c := s.Counters()
	if c.Submitted != 0 || c.Rejected != 1 {
		t.Errorf("counters = %+v, want Submitted 0 / Rejected 1", c)
	}
	if queued, running := s.InFlight(); queued != 0 || running != 0 {
		t.Errorf("rejected job left in-flight state: %d queued, %d running", queued, running)
	}
	// An admissible job still goes through afterwards.
	j, err := s.Submit(context.Background(), noop, Hint{})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j)
}

// TestExpiredQueueEntriesDoNotReject pins the bugfix for expired jobs
// pinning bounded-FIFO slots: even when the prompt AfterFunc watcher is
// out of the picture (simulated by detaching it), a dead queue entry
// must not cause ErrOverloaded for the next submission — Submit reaps
// expired entries before admitting.
func TestExpiredQueueEntriesDoNotReject(t *testing.T) {
	s, _ := newTestServer(t, 2, Config{MaxInFlight: 1, MaxQueue: 1})
	release := make(chan struct{})
	defer close(release)
	blocker(t, s, release)

	dead, err := s.Submit(context.Background(), noop, Hint{})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a watcher that has not fired yet: detach it, then cancel.
	// The entry is now queued with a done context and nothing to clean it
	// up except the reap-on-insert/dequeue paths under test.
	s.mu.Lock()
	if dead.stopWatch == nil {
		s.mu.Unlock()
		t.Fatal("queued job has no watcher to detach")
	}
	dead.stopWatch()
	dead.stopWatch = nil
	s.mu.Unlock()
	dead.cancel()

	j, err := s.Submit(context.Background(), noop, Hint{})
	if err != nil {
		t.Fatalf("Submit after expired entry: err = %v, want admit", err)
	}
	wait(t, dead)
	if dead.State() != Canceled {
		t.Errorf("dead entry state = %v, want Canceled", dead.State())
	}
	if j.State() == Canceled {
		t.Errorf("replacement job was canceled")
	}
}

// TestSLODispatchOrder pins end-to-end dispatch order: with one running
// slot pinned, AdmitSLO dispatches queued jobs interactive before
// standard before batch regardless of submission order, with EDF within
// a class; AdmitFIFO runs the same submissions in submission order.
func TestSLODispatchOrder(t *testing.T) {
	for _, tc := range []struct {
		policy string
		want   []string
	}{
		{AdmitSLO, []string{"interactive", "standard-near", "standard-far", "batch"}},
		{AdmitFIFO, []string{"batch", "standard-far", "standard-near", "interactive"}},
	} {
		t.Run(tc.policy, func(t *testing.T) {
			s, _ := newTestServer(t, 2, Config{
				MaxInFlight:     1,
				MaxQueue:        10,
				AdmissionPolicy: tc.policy,
			})
			release := make(chan struct{})
			b := blocker(t, s, release)

			var mu sync.Mutex
			var order []string
			body := func(tag string) func(*runtime.Ctx) error {
				return func(*runtime.Ctx) error {
					mu.Lock()
					order = append(order, tag)
					mu.Unlock()
					return nil
				}
			}
			far := time.Now().Add(time.Hour)
			near := time.Now().Add(30 * time.Minute)
			jobs := []*Job{}
			for _, sub := range []struct {
				tag string
				h   Hint
			}{
				{"batch", Hint{Class: ClassBatch}},
				{"standard-far", Hint{Class: ClassStandard, Deadline: far}},
				{"standard-near", Hint{Class: ClassStandard, Deadline: near}},
				{"interactive", Hint{Class: ClassInteractive}},
			} {
				j, err := s.Submit(context.Background(), body(sub.tag), sub.h)
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, j)
			}
			close(release)
			wait(t, b)
			for _, j := range jobs {
				wait(t, j)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(order) != len(tc.want) {
				t.Fatalf("ran %d jobs, want %d (%v)", len(order), len(tc.want), order)
			}
			for i := range tc.want {
				if order[i] != tc.want[i] {
					t.Fatalf("dispatch order = %v, want %v", order, tc.want)
				}
			}
		})
	}
}

// TestFIFOIgnoresTenantRate pins that tenant token buckets are an
// AdmitSLO feature: a FIFO server configured with a rate never returns
// ErrRateLimited, while an SLO server with the same rate does.
func TestFIFOIgnoresTenantRate(t *testing.T) {
	for _, tc := range []struct {
		policy      string
		wantLimited bool
	}{{AdmitFIFO, false}, {AdmitSLO, true}} {
		s, _ := newTestServer(t, 2, Config{
			MaxInFlight:     1,
			MaxQueue:        8,
			AdmissionPolicy: tc.policy,
			TenantRate:      0.001,
			TenantBurst:     1,
		})
		release := make(chan struct{})
		limited := false
		var jobs []*Job
		for i := 0; i < 4; i++ {
			j, err := s.Submit(context.Background(), func(*runtime.Ctx) error { <-release; return nil },
				Hint{Tenant: "alice"})
			switch {
			case errors.Is(err, ErrRateLimited):
				limited = true
			case err != nil:
				t.Fatalf("%s: submit %d: %v", tc.policy, i, err)
			default:
				jobs = append(jobs, j)
			}
		}
		close(release)
		for _, j := range jobs {
			wait(t, j)
		}
		if limited != tc.wantLimited {
			t.Errorf("%s: rate limited = %v, want %v", tc.policy, limited, tc.wantLimited)
		}
	}
}

// TestJainByClass pins the fairness gauge: one tenant per class is
// perfectly fair (1); classes without completions are omitted.
func TestJainByClass(t *testing.T) {
	s, _ := newTestServer(t, 2, Config{})
	for _, tenant := range []string{"a", "b"} {
		j, err := s.Submit(context.Background(), noop, Hint{Class: ClassStandard, Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		wait(t, j)
	}
	jain := s.JainByClass()
	got, ok := jain[ClassStandard]
	if !ok {
		t.Fatal("standard class missing from JainByClass")
	}
	if got <= 0.5 || got > 1 {
		t.Errorf("Jain index = %v, want in (0.5, 1] for two comparable tenants", got)
	}
	if _, ok := jain[ClassBatch]; ok {
		t.Error("batch class reported without completions")
	}
}

// TestDrainExpiredQueuedCanceled pins the Drain semantics satellite:
// jobs whose deadline expires while queued during a drain complete
// Canceled (not Failed), and Drain still returns.
func TestDrainExpiredQueuedCanceled(t *testing.T) {
	s, _ := newTestServer(t, 2, Config{MaxInFlight: 1, MaxQueue: 8})
	release := make(chan struct{})
	b := blocker(t, s, release)
	var expiring []*Job
	for i := 0; i < 4; i++ {
		j, err := s.Submit(context.Background(), noop,
			Hint{Deadline: time.Now().Add(30 * time.Millisecond)})
		if err != nil {
			t.Fatal(err)
		}
		expiring = append(expiring, j)
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		done <- s.Drain(ctx)
	}()
	time.Sleep(60 * time.Millisecond) // let the deadlines lapse mid-drain
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wait(t, b)
	for _, j := range expiring {
		wait(t, j)
		if j.State() != Canceled {
			t.Errorf("expired job %d: state %v err %v, want Canceled", j.ID(), j.State(), j.Err())
		}
		if !errors.Is(j.Err(), context.DeadlineExceeded) {
			t.Errorf("expired job %d: err = %v, want DeadlineExceeded", j.ID(), j.Err())
		}
	}
	if c := s.Counters(); c.Failed != 0 || c.Canceled != 4 {
		t.Errorf("counters = %+v, want Failed 0 / Canceled 4", c)
	}
}

// TestAdmissionRaces exercises Submit/Cancel/Drain/deadline-expiry
// concurrently under -race: no job may end up Failed, and the server
// must drain to empty.
func TestAdmissionRaces(t *testing.T) {
	s, _ := newTestServer(t, 4, Config{
		MaxInFlight:     2,
		MaxQueue:        16,
		AdmissionPolicy: AdmitSLO,
	})
	classes := DefaultClasses()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var submitted []*Job
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				h := Hint{Class: classes[i%len(classes)], Tenant: "t" + string(rune('0'+g))}
				if i%3 == 0 {
					h.Deadline = time.Now().Add(time.Duration(i%5) * time.Millisecond)
				}
				j, err := s.Submit(context.Background(), noop, h)
				if err != nil {
					continue // overload / past-deadline rejects are expected
				}
				if i%7 == 0 {
					j.Cancel()
				}
				mu.Lock()
				submitted = append(submitted, j)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, j := range submitted {
		wait(t, j)
		if st := j.State(); st == Failed {
			t.Errorf("job %d failed: %v", j.ID(), j.Err())
		}
	}
	if queued, running := s.InFlight(); queued != 0 || running != 0 {
		t.Errorf("after drain: %d queued, %d running", queued, running)
	}
}
