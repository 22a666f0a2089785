// Package cluster shards the job-serving layer across N independently
// configured pools behind a pluggable routing policy — the serving-layer
// scale-out of the paper's locality story. One adws pool keeps iterative
// workloads on warm caches *within* a machine shard (deterministic
// task-to-worker mapping, dominant-group steal ranges); the cluster
// extends that across shards: a Router decides which pool each submitted
// job lands on, and the locality-affinity policy keeps repeats of a
// workload key on the pool whose caches last ran it, spilling to a less
// loaded pool only when the warm pool falls behind (cf. "On the
// Efficiency of Localized Work Stealing", PAPERS.md).
//
// The cluster does not reimplement admission: each member pool is a
// *server.Server with its own runtime pool, admission window, and
// placement cursor. Routing, by contrast, is cluster-level: every Submit
// takes one live load snapshot per pool, asks the Router for a pool,
// classifies the decision against the cluster's own key history (warm /
// cold / moved / spill), and submits to the chosen member.
// Classification is policy-independent, so a round-robin and an affinity
// cluster driven with the same stream are directly comparable on
// warm-hit rate.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/parlab/adws/internal/runtime"
	"github.com/parlab/adws/internal/server"
)

// retainJobs caps how many terminal jobs the cluster-wide id lookup
// keeps, oldest evicted first. In-flight jobs are always retained.
const retainJobs = 4096

// Verdict classifies one routing decision against the cluster's key
// history. The classification is made by the cluster, not the router,
// so it means the same thing under every policy.
type Verdict string

const (
	// Cold: the request's key was never routed before (or is empty).
	Cold Verdict = "cold"
	// Warm: the job landed on the pool that last ran its key.
	Warm Verdict = "warm"
	// Spill: the router deliberately diverted the job away from its warm
	// pool for load reasons (Decision.Spill).
	Spill Verdict = "spill"
	// Moved: the job landed on a different pool than its key's last run
	// without a deliberate spill (e.g. round-robin striding past it).
	Moved Verdict = "moved"
)

// RouteCounts are one pool's monotonic routing counters.
type RouteCounts struct {
	// Jobs counts submissions routed to the pool that were admitted.
	Jobs int64
	// Warm/Cold/Spill/Moved partition Jobs by Verdict.
	Warm, Cold, Spill, Moved int64
	// Rejected counts submissions routed to the pool that its admission
	// then rejected (not part of Jobs).
	Rejected int64
	// Classes partitions Jobs by the landing pool's effective priority
	// class (the server-normalized Hint.Class, so jobs submitted with an
	// empty class count under the pool's default). Nil until the first
	// admitted job.
	Classes map[string]int64
}

// clone deep-copies the counters (the Classes map is shared otherwise).
func (c RouteCounts) clone() RouteCounts {
	if c.Classes != nil {
		m := make(map[string]int64, len(c.Classes))
		for k, v := range c.Classes {
			m[k] = v
		}
		c.Classes = m
	}
	return c
}

// WarmRate returns Warm / Jobs, or 0 with no jobs.
func (c RouteCounts) WarmRate() float64 {
	if c.Jobs == 0 {
		return 0
	}
	return float64(c.Warm) / float64(c.Jobs)
}

// Job is one routed job: the underlying server job plus its cluster-wide
// id and the pool it landed on. The embedded *server.Job provides the
// full lifecycle surface (Wait, Err, State, Stats, Cancel, TraceID).
type Job struct {
	*server.Job
	id      int64
	pool    int
	verdict Verdict
}

// ClusterID returns the job's cluster-wide ordinal (1-based, assigned at
// submission). It is distinct from Job.ID, the per-pool ordinal.
func (j *Job) ClusterID() int64 { return j.id }

// Pool returns the id of the pool the job was routed to.
func (j *Job) Pool() int { return j.pool }

// Verdict returns the routing classification the job was admitted under.
func (j *Job) Verdict() Verdict { return j.verdict }

// Cluster owns N pools and routes submitted jobs across them.
type Cluster struct {
	pools  []*server.Server
	router Router

	mu     sync.Mutex     //adws:lockrank(20) outermost of the submit path: nests over server.mu
	last   map[string]int // key -> pool that last ran it (for Verdict)
	counts []RouteCounts  // per pool
	idSeq  int64
	jobs   map[int64]*Job
	order  []int64 // cluster ids in submission order, bounded retention
}

// New creates a cluster over the given pools (at least one), routed by
// router. The cluster does not own the pools' runtimes: Close closes each
// server (stopping admission) but closing the underlying runtime pools
// stays with the caller that created them.
func New(pools []*server.Server, router Router) (*Cluster, error) {
	if len(pools) == 0 {
		return nil, errors.New("cluster: need at least one pool")
	}
	return &Cluster{
		pools:  pools,
		router: router,
		last:   make(map[string]int),
		counts: make([]RouteCounts, len(pools)),
		jobs:   make(map[int64]*Job),
	}, nil
}

// NumPools returns the pool count.
func (c *Cluster) NumPools() int { return len(c.pools) }

// PoolAt returns pool i.
func (c *Cluster) PoolAt(i int) *server.Server { return c.pools[i] }

// Policy returns the routing policy name.
func (c *Cluster) Policy() string { return c.router.Name() }

// Snapshots returns one live load snapshot per pool — the same view the
// router decides from.
func (c *Cluster) Snapshots() []Snapshot {
	snaps := make([]Snapshot, len(c.pools))
	for i, p := range c.pools {
		q, r := p.InFlight()
		snaps[i] = Snapshot{
			Pool:     i,
			Workers:  p.Workers(),
			Queued:   q,
			Running:  r,
			MaxQueue: p.Config().MaxQueue,
		}
	}
	return snaps
}

// Submit routes fn to a pool and admits it there. Routing and admission
// are atomic with respect to other Submits (one cluster-level mutex), so
// affinity decisions see a coherent key history; the per-pool admission
// errors (server.ErrOverloaded etc.) propagate wrapped with the pool id.
func (c *Cluster) Submit(ctx context.Context, req Request, fn func(*runtime.Ctx) error, h server.Hint) (*Job, error) {
	snaps := c.Snapshots()
	c.mu.Lock()
	defer c.mu.Unlock()
	dec := c.router.Route(req, snaps)
	if dec.Pool < 0 || dec.Pool >= len(c.pools) {
		return nil, fmt.Errorf("cluster: router %s chose pool %d of %d", c.router.Name(), dec.Pool, len(c.pools))
	}
	verdict := c.classifyLocked(req.Key, dec)
	sj, err := c.pools[dec.Pool].Submit(ctx, fn, h)
	if err != nil {
		c.counts[dec.Pool].Rejected++
		return nil, fmt.Errorf("cluster: pool %d: %w", dec.Pool, err)
	}
	c.noteRoutedLocked(dec.Pool, verdict, sj.Hint().Class)
	if req.Key != "" {
		c.last[req.Key] = dec.Pool
	}
	c.idSeq++
	j := &Job{Job: sj, id: c.idSeq, pool: dec.Pool, verdict: verdict}
	c.retainLocked(j)
	return j, nil
}

// classifyLocked grades a routing decision against the cluster's key
// history. Caller holds c.mu.
func (c *Cluster) classifyLocked(key string, dec Decision) Verdict {
	if key == "" {
		return Cold
	}
	lastPool, seen := c.last[key]
	switch {
	case !seen:
		return Cold
	case dec.Pool == lastPool:
		return Warm
	case dec.Spill:
		return Spill
	default:
		return Moved
	}
}

func (c *Cluster) noteRoutedLocked(pool int, v Verdict, class string) {
	ct := &c.counts[pool]
	ct.Jobs++
	switch v {
	case Warm:
		ct.Warm++
	case Cold:
		ct.Cold++
	case Spill:
		ct.Spill++
	case Moved:
		ct.Moved++
	}
	if class != "" {
		if ct.Classes == nil {
			ct.Classes = make(map[string]int64)
		}
		ct.Classes[class]++
	}
}

// RouteCounts returns a deep copy of the per-pool routing counters.
func (c *Cluster) RouteCounts() []RouteCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]RouteCounts, len(c.counts))
	for i, ct := range c.counts {
		out[i] = ct.clone()
	}
	return out
}

// Totals sums the per-pool routing counters.
func (c *Cluster) Totals() RouteCounts {
	var t RouteCounts
	for _, ct := range c.RouteCounts() {
		t.Jobs += ct.Jobs
		t.Warm += ct.Warm
		t.Cold += ct.Cold
		t.Spill += ct.Spill
		t.Moved += ct.Moved
		t.Rejected += ct.Rejected
		for cl, n := range ct.Classes {
			if t.Classes == nil {
				t.Classes = make(map[string]int64)
			}
			t.Classes[cl] += n
		}
	}
	return t
}

// Job returns the routed job with the given cluster-wide id, if
// retained.
func (c *Cluster) Job(id int64) (*Job, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	return j, ok
}

// Jobs returns the retained routed jobs in submission order.
func (c *Cluster) Jobs() []*Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Job, 0, len(c.order))
	for _, id := range c.order {
		if j, ok := c.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// retainLocked mirrors the server's bounded retention: terminal jobs
// beyond the cap are evicted oldest-first; in-flight jobs always stay.
// Caller holds c.mu.
func (c *Cluster) retainLocked(j *Job) {
	c.jobs[j.id] = j
	c.order = append(c.order, j.id)
	if len(c.order) <= retainJobs {
		return
	}
	kept := c.order[:0]
	excess := len(c.order) - retainJobs
	for _, id := range c.order {
		if excess > 0 {
			if old, ok := c.jobs[id]; ok && old.State().Terminal() {
				delete(c.jobs, id)
				excess--
				continue
			}
		}
		kept = append(kept, id)
	}
	c.order = kept
}

// InFlight sums the pools' queue depths and running-job counts.
func (c *Cluster) InFlight() (queued, running int) {
	for _, p := range c.pools {
		q, r := p.InFlight()
		queued += q
		running += r
	}
	return queued, running
}

// Workers sums the pools' worker counts.
func (c *Cluster) Workers() int {
	var n int
	for _, p := range c.pools {
		n += p.Workers()
	}
	return n
}

// Drain drains every pool concurrently and returns the first error.
func (c *Cluster) Drain(ctx context.Context) error {
	errs := make([]error, len(c.pools))
	var wg sync.WaitGroup
	for i, p := range c.pools {
		wg.Add(1)
		go func(i int, p *server.Server) {
			defer wg.Done()
			errs[i] = p.Drain(ctx)
		}(i, p)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("cluster: drain pool %d: %w", i, err)
		}
	}
	return nil
}

// Close stops admission on every pool. It does not wait (Drain first)
// and does not close the underlying runtime pools.
func (c *Cluster) Close() {
	for _, p := range c.pools {
		p.Close()
	}
}
