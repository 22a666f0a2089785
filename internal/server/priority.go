package server

import (
	"errors"
	"time"
)

// SLO-aware admission. The FIFO queue treats every job the same, so a
// latency-critical job queued behind a batch backlog misses its deadline
// even when the pool has capacity. PriorityAdmitter keeps the server's
// bounded-queue backpressure but reorders dispatch by declared job
// properties — priority class, deadline, work hint — the same
// determinism-from-declared-hints principle ADWS applies to task
// placement, lifted to the admission queue.

// Priority class names, highest priority first (see DefaultClasses).
const (
	ClassInteractive = "interactive"
	ClassStandard    = "standard"
	ClassBatch       = "batch"
)

// DefaultClasses returns the server's priority-class list, highest
// priority first.
func DefaultClasses() []string {
	return []string{ClassInteractive, ClassStandard, ClassBatch}
}

var (
	// ErrRateLimited fast-rejects a submission whose tenant has exhausted
	// its token bucket.
	ErrRateLimited = errors.New("server: rate limited: tenant token bucket empty")
	// ErrUnknownClass rejects a submission naming a priority class the
	// server was not configured with.
	ErrUnknownClass = errors.New("server: unknown priority class")
)

// DefaultAging is the default cross-class aging quantum: a queued job is
// promoted one priority level for every DefaultAging it has waited, so a
// steady interactive stream cannot starve batch work forever.
const DefaultAging = 2 * time.Second

// tokenBucket is one tenant's submit-rate bucket. Refill happens lazily
// on each Admit; state is guarded by the server's mutex like the rest of
// the admitter.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// PriorityAdmitter is the SLO-aware admission policy:
//
//   - strict priority across classes (Classes[0] highest), softened by
//     aging: a job's effective level drops one class per Aging waited,
//     clamped at the highest class, so lower classes cannot starve;
//   - earliest-deadline-first within a level (no deadline sorts last);
//   - shortest-job-first by work hint as the tie-break, then submission
//     order, keeping dispatch deterministic for identical hints.
//
// Per-tenant token buckets bound the submit rate before queueing: each
// tenant accrues TenantRate tokens/second up to TenantBurst, one token
// per admitted job; an empty bucket fast-rejects with ErrRateLimited.
//
// With TenantRate 0, Admit and CanDispatch are plain bounded-FIFO
// admission; the server uses it that way under AdmitFIFO and dispatches
// the queue head instead of calling Next.
//
// All methods run under the server's mutex, so the admitter keeps plain
// maps without internal locking.
type PriorityAdmitter struct {
	// MaxInFlight and MaxQueue bound running and queued jobs.
	MaxInFlight, MaxQueue int
	// Aging is the promotion quantum (<= 0: DefaultAging). A queued job's
	// effective level is its class index minus waited/Aging.
	Aging time.Duration
	// TenantRate is the per-tenant token refill rate in jobs/second;
	// <= 0 disables rate limiting.
	TenantRate float64
	// TenantBurst caps a tenant's bucket (<= 0: max(1, TenantRate)).
	TenantBurst float64

	classIdx map[string]int
	buckets  map[string]*tokenBucket
}

// NewPriorityAdmitter builds a PriorityAdmitter over classes (highest
// priority first; must be non-empty and duplicate-free) with the given
// in-flight and queue bounds.
func NewPriorityAdmitter(classes []string, maxInFlight, maxQueue int) *PriorityAdmitter {
	idx := make(map[string]int, len(classes))
	for i, c := range classes {
		if c == "" {
			panic("server: empty priority class name")
		}
		if _, dup := idx[c]; dup {
			panic("server: duplicate priority class " + c)
		}
		idx[c] = i
	}
	if len(idx) == 0 {
		panic("server: PriorityAdmitter needs at least one class")
	}
	return &PriorityAdmitter{
		MaxInFlight: maxInFlight,
		MaxQueue:    maxQueue,
		classIdx:    idx,
		buckets:     make(map[string]*tokenBucket),
	}
}

// Admit bounds the queue depth (ErrOverloaded) and the submitting
// tenant's rate (ErrRateLimited). The class itself is validated by the
// server before Admit runs.
func (p *PriorityAdmitter) Admit(h Hint, now time.Time, queued, running int) error {
	if queued >= p.MaxQueue {
		return ErrOverloaded
	}
	if p.TenantRate <= 0 {
		return nil
	}
	burst := p.TenantBurst
	if burst <= 0 {
		burst = p.TenantRate
		if burst < 1 {
			burst = 1
		}
	}
	b := p.buckets[h.Tenant]
	if b == nil {
		b = &tokenBucket{tokens: burst, last: now}
		p.buckets[h.Tenant] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * p.TenantRate
		if b.tokens > burst {
			b.tokens = burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return ErrRateLimited
	}
	b.tokens--
	return nil
}

// CanDispatch caps concurrently running jobs at MaxInFlight.
func (p *PriorityAdmitter) CanDispatch(running int) bool { return running < p.MaxInFlight }

// Next picks the queued job with the best (lowest) effective level,
// breaking ties by earliest deadline, then smallest work hint, then
// submission order.
func (p *PriorityAdmitter) Next(now time.Time, queue []*Job) int {
	best := 0
	for i := 1; i < len(queue); i++ {
		if p.before(now, queue[i], queue[best]) {
			best = i
		}
	}
	return best
}

// before reports whether a should dispatch ahead of b.
func (p *PriorityAdmitter) before(now time.Time, a, b *Job) bool {
	if la, lb := p.level(now, a), p.level(now, b); la != lb {
		return la < lb
	}
	da, db := a.Hint().Deadline, b.Hint().Deadline
	switch {
	case da.IsZero() != db.IsZero():
		return !da.IsZero() // a deadline beats no deadline
	case !da.IsZero() && !da.Equal(db):
		return da.Before(db)
	}
	if wa, wb := effWork(a), effWork(b); wa != wb {
		return wa < wb
	}
	return false // stable: the earlier-submitted (lower index) job wins
}

// level is a job's aged priority level: its class index minus one per
// Aging waited, clamped at 0. Unknown classes (possible only in a queue
// built outside a server) sort after every configured class.
func (p *PriorityAdmitter) level(now time.Time, j *Job) int {
	idx, ok := p.classIdx[j.Hint().Class]
	if !ok {
		idx = len(p.classIdx)
	}
	aging := p.Aging
	if aging <= 0 {
		aging = DefaultAging
	}
	if waited := now.Sub(j.Submitted()); waited > 0 {
		idx -= int(waited / aging)
	}
	if idx < 0 {
		idx = 0
	}
	return idx
}

// effWork is the hint work with the server's non-positive-means-1 rule
// applied, so hinted and unhinted jobs compare consistently.
func effWork(j *Job) float64 {
	if w := j.Hint().Work; w > 0 {
		return w
	}
	return 1
}
