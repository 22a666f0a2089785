package server

import (
	"context"
	"fmt"
	"time"

	"github.com/parlab/adws/internal/runtime"
)

// Hint carries per-job admission and placement hints, the job-level
// analogue of the paper's per-group hints: the job's relative work
// (against the other in-flight jobs, for hint-guided worker-range
// division), its working-set size in bytes (for multi-level tie/flatten
// of the job's root group), and an optional absolute deadline after which
// a still-queued job is cancelled instead of started.
type Hint struct {
	// Work is the job's relative work; non-positive means 1 (equal to an
	// unhinted job).
	Work float64
	// Size is the job's working-set size in bytes; zero means unknown (the
	// job body runs bare, without a sized root group).
	Size int64
	// Deadline, when nonzero, bounds the job's time in the admission
	// queue: a job still queued at the deadline is cancelled and never
	// runs. A deadline already past at submit is rejected synchronously
	// with context.DeadlineExceeded. Running jobs are not preempted (tasks
	// are not interruptible); bodies that want to stop early must watch
	// Job.Context themselves.
	Deadline time.Time
	// Class names the job's priority class. Empty means the server's
	// default class; a name outside the server's class list is rejected
	// with ErrUnknownClass. The server normalizes the field at submit, so
	// Job.Hint always reports the effective class.
	Class string
	// Tenant identifies the submitting tenant for per-tenant rate
	// limiting and fairness accounting. Empty is its own (shared) tenant.
	Tenant string
}

// State is a job's lifecycle state.
type State int32

const (
	// Queued: admitted, waiting in the FIFO admission queue.
	Queued State = iota
	// Running: placed on the pool as a root task group.
	Running
	// Done: completed; Err returns nil.
	Done
	// Failed: completed with an error (body error or panic); Err returns it.
	Failed
	// Canceled: cancelled or deadline-expired before it started running.
	Canceled
)

func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Canceled:
		return "canceled"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Canceled }

// Stats is a job's scheduling profile: admission timing plus the job's
// slice of the scheduler counters (maintained per job by the runtime; see
// trace.Summarize(trace.FilterJob(…)) for the richer post-hoc trace slice).
type Stats struct {
	// Queued is the time spent in the admission queue; Run the time
	// between placement and completion (zero while running).
	Queued, Run time.Duration
	// RangeLo and RangeHi are the worker-range fraction [lo, hi) of the
	// pool the job's root task group was placed on (both zero while
	// queued).
	RangeLo, RangeHi float64
	// Tasks, Steals, Migrations are the job's scheduling counters: tasks
	// executed, successful steals of the job's tasks, and deterministic
	// migrations. Live (monotonic) while the job runs.
	Tasks, Steals, Migrations int64
}

// Job is one submitted root computation.
type Job struct {
	id     int64
	hint   Hint
	fn     func(*runtime.Ctx) error
	ctx    context.Context
	cancel context.CancelFunc
	// stopWatch detaches the queued-cancellation watcher once dispatched.
	stopWatch func() bool

	done chan struct{}

	// srv.mu guards the mutable fields below.
	srv                          *Server
	state                        State
	err                          error
	root                         *runtime.RootJob
	lo, hi                       float64
	submitted, started, finished time.Time
}

// ID returns the job's pool-unique ordinal (1-based), assigned at
// submission.
func (j *Job) ID() int64 { return j.id }

// TraceID returns the runtime root-job ordinal the job's tasks carry in
// the pool's trace events (trace.Event.Job), or 0 while the job has not
// been placed yet. It can differ from ID: runtime ordinals are assigned at
// placement (and Pool.Run consumes them too).
func (j *Job) TraceID() int64 {
	j.srv.mu.Lock()
	defer j.srv.mu.Unlock()
	if j.root == nil {
		return 0
	}
	return j.root.ID()
}

// Hint returns the hints the job was submitted with, with Class
// normalized to the effective class. Immutable after Submit returns.
func (j *Job) Hint() Hint { return j.hint }

// Submitted returns the job's submission time. It is set once before the
// job is published and never changes, so PriorityAdmitter.Next may read
// it without taking any lock.
func (j *Job) Submitted() time.Time { return j.submitted }

// Context returns the job's context: it carries the submission context
// and the hint deadline, and is cancelled by Cancel. Job bodies may watch
// it to stop cooperatively.
func (j *Job) Context() context.Context { return j.ctx }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel cancels the job's context. A queued job completes as Canceled
// without running; a running job is not preempted (its body may watch
// Context), and still completes as Done or Failed.
func (j *Job) Cancel() { j.cancel() }

// Wait blocks until the job reaches a terminal state or ctx is done, and
// returns the job's error (Err) or ctx's.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return j.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.srv.mu.Lock()
	defer j.srv.mu.Unlock()
	return j.state
}

// Err returns the job's terminal error: nil for Done, the body's error or
// panic for Failed, the context error for Canceled, and nil while the job
// is still queued or running.
func (j *Job) Err() error {
	j.srv.mu.Lock()
	defer j.srv.mu.Unlock()
	return j.err
}

// Stats returns the job's scheduling profile. Safe to call at any time;
// counters are live while the job runs.
func (j *Job) Stats() Stats {
	j.srv.mu.Lock()
	defer j.srv.mu.Unlock()
	return j.statsLocked()
}

func (j *Job) statsLocked() Stats {
	s := Stats{RangeLo: j.lo, RangeHi: j.hi}
	switch {
	case j.state == Queued:
		s.Queued = time.Since(j.submitted)
	case j.started.IsZero(): // cancelled while queued
		s.Queued = j.finished.Sub(j.submitted)
	case j.state == Running:
		s.Queued = j.started.Sub(j.submitted)
		s.Run = time.Since(j.started)
	default:
		s.Queued = j.started.Sub(j.submitted)
		s.Run = j.finished.Sub(j.started)
	}
	if j.root != nil {
		s.Tasks = j.root.Tasks()
		s.Steals = j.root.Steals()
		s.Migrations = j.root.Migrations()
	}
	return s
}
