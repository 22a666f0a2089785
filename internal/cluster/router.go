package cluster

import (
	"fmt"
	"sort"
)

// Request describes one job being routed.
type Request struct {
	// Key is the job's workload key: jobs that touch the same data (an
	// iterative workload resubmitting the same computation) share a key,
	// and the affinity policy routes repeats of a key back to the pool
	// whose caches it warmed. Empty means no affinity.
	Key string
	// Work is the job's relative work hint (<= 0 is treated as 1).
	Work float64
}

// Snapshot is one pool's live load at routing time. The slice index
// passed to Route is the pool id.
type Snapshot struct {
	// Pool is the pool's id (its index in the cluster).
	Pool int
	// Workers is the pool's worker count.
	Workers int
	// Queued and Running are the pool's admission state (Server.InFlight).
	// Queued counts only still-admissible entries: the serving layer
	// reaps deadline-expired and cancelled queue entries before
	// reporting, so absorbing a burst of expired work does not skew the
	// load figure routers compare.
	Queued, Running int
	// MaxQueue is the pool's admission-queue capacity: a pool with
	// Queued >= MaxQueue would fast-reject the submission.
	MaxQueue int
}

// load is the per-worker pending load the least-loaded and affinity
// policies compare: (queued + running) jobs per worker.
func (s Snapshot) load() float64 {
	w := s.Workers
	if w <= 0 {
		w = 1
	}
	return float64(s.Queued+s.Running) / float64(w)
}

// full reports whether routing to the pool would fast-reject.
func (s Snapshot) full() bool { return s.MaxQueue > 0 && s.Queued >= s.MaxQueue }

// Decision is a router's choice for one request.
type Decision struct {
	// Pool is the chosen pool id (an index into the snapshots).
	Pool int
	// Spill marks a deliberate load-based diversion away from the
	// request's warm pool (affinity policy only).
	Spill bool
}

// Router picks a pool for each submitted job. The cluster serializes
// Route calls under its own mutex, so implementations may keep
// unsynchronized state (round-robin's counter, affinity's key map); a
// Router must not be shared between clusters.
type Router interface {
	// Name returns the policy name (see ParsePolicy).
	Name() string
	// Route picks a pool for req given one live snapshot per pool.
	// snaps is never empty; the returned Pool must index it.
	Route(req Request, snaps []Snapshot) Decision
}

// Policy names accepted by ParsePolicy.
const (
	PolicyRoundRobin  = "round-robin"
	PolicyLeastLoaded = "least-loaded"
	PolicyAffinity    = "affinity"
)

// Policies lists the built-in routing policies.
func Policies() []string {
	return []string{PolicyRoundRobin, PolicyLeastLoaded, PolicyAffinity}
}

// ParsePolicy returns a fresh Router for a built-in policy name.
func ParsePolicy(name string) (Router, error) {
	switch name {
	case PolicyRoundRobin:
		return NewRoundRobin(), nil
	case PolicyLeastLoaded:
		return NewLeastLoaded(), nil
	case PolicyAffinity:
		return NewAffinity(), nil
	}
	return nil, fmt.Errorf("cluster: unknown routing policy %q (want %v)", name, Policies())
}

// RoundRobin routes job i to pool i mod N, ignoring load and keys —
// the baseline policy: deterministic in submission order, maximally
// cache-oblivious.
type RoundRobin struct {
	next int
}

// NewRoundRobin returns a round-robin router starting at pool 0.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Router.
func (r *RoundRobin) Name() string { return PolicyRoundRobin }

// Route implements Router.
func (r *RoundRobin) Route(req Request, snaps []Snapshot) Decision {
	p := r.next % len(snaps)
	r.next++
	return Decision{Pool: p}
}

// LeastLoaded routes to the pool with the lowest per-worker pending load
// ((queued + running) / workers), breaking ties toward the lowest pool
// id. Pools whose admission queue is full are avoided unless every pool
// is full.
type LeastLoaded struct{}

// NewLeastLoaded returns a least-loaded router.
func NewLeastLoaded() *LeastLoaded { return &LeastLoaded{} }

// Name implements Router.
func (r *LeastLoaded) Name() string { return PolicyLeastLoaded }

// Route implements Router.
func (r *LeastLoaded) Route(req Request, snaps []Snapshot) Decision {
	return Decision{Pool: leastLoaded(snaps, -1)}
}

// leastLoaded returns the id of the pool with minimum per-worker load,
// preferring non-full pools and skipping pool `not` (pass -1 to consider
// all). Ties break toward the lowest id; with a single candidate the
// answer is that candidate even if full.
func leastLoaded(snaps []Snapshot, not int) int {
	best, bestFull := -1, false
	var bestLoad float64
	for i := range snaps {
		if i == not && len(snaps) > 1 {
			continue
		}
		l, f := snaps[i].load(), snaps[i].full()
		better := best < 0 ||
			(bestFull && !f) ||
			(bestFull == f && l < bestLoad)
		if better {
			best, bestLoad, bestFull = i, l, f
		}
	}
	return best
}

// Affinity is the locality policy — the serving-layer analogue of the
// paper's iterative-locality result: repeats of a workload key are
// routed to the pool that last ran it, so an iterative workload keeps
// meeting warm caches, with load-based spill-over when the warm pool
// falls too far behind. Unseen and keyless requests fall back to
// least-loaded placement.
type Affinity struct {
	last map[string]int // key -> pool that last ran it
}

// DefaultSpillOver is the per-worker pending-load excess over the
// cluster minimum beyond which a warm pool is abandoned: a warm pool may
// run this many more pending jobs per worker than the least-loaded pool
// before repeats of its keys spill. A warm pool whose admission queue is
// full always spills.
const DefaultSpillOver = 2.0

// NewAffinity returns an affinity router.
func NewAffinity() *Affinity {
	return &Affinity{last: make(map[string]int)}
}

// Name implements Router.
func (r *Affinity) Name() string { return PolicyAffinity }

// Route implements Router. A spilled key is re-homed: subsequent
// repeats warm the spill target, not the abandoned pool.
func (r *Affinity) Route(req Request, snaps []Snapshot) Decision {
	if r.last == nil {
		r.last = make(map[string]int)
	}
	warm, ok := -1, false
	if req.Key != "" {
		warm, ok = r.lastPool(req.Key, len(snaps))
	}
	if !ok {
		p := leastLoaded(snaps, -1)
		if req.Key != "" {
			r.last[req.Key] = p
		}
		return Decision{Pool: p}
	}
	min := snaps[leastLoaded(snaps, -1)].load()
	if snaps[warm].full() || snaps[warm].load()-min > DefaultSpillOver {
		p := leastLoaded(snaps, warm)
		r.last[req.Key] = p
		return Decision{Pool: p, Spill: true}
	}
	return Decision{Pool: warm}
}

func (r *Affinity) lastPool(key string, n int) (int, bool) {
	p, ok := r.last[key]
	if !ok || p < 0 || p >= n {
		return -1, false
	}
	return p, true
}

// Keys returns the keys the router currently remembers, sorted — for
// introspection and tests.
func (r *Affinity) Keys() []string {
	out := make([]string, 0, len(r.last))
	for k := range r.last {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
