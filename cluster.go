package adws

import (
	"context"
	"fmt"

	"github.com/parlab/adws/internal/cluster"
	"github.com/parlab/adws/internal/metrics"
	"github.com/parlab/adws/internal/server"
)

// Routing policy names accepted by NewCluster (see docs/CLUSTER.md).
const (
	// RouteRoundRobin stripes jobs across pools in submission order.
	RouteRoundRobin = cluster.PolicyRoundRobin
	// RouteLeastLoaded routes to the pool with the lowest per-worker
	// pending load.
	RouteLeastLoaded = cluster.PolicyLeastLoaded
	// RouteAffinity routes repeats of a workload key back to the pool
	// that last ran it, spilling to a less loaded pool when the warm
	// pool falls behind.
	RouteAffinity = cluster.PolicyAffinity
)

// RoutingPolicies lists the built-in cluster routing policies.
func RoutingPolicies() []string { return cluster.Policies() }

// ClusterJob is one routed job: the per-pool Job plus its cluster-wide
// id (ClusterID), target pool (Pool), and routing Verdict.
type ClusterJob = cluster.Job

// RouteCounts are one pool's monotonic routing counters (warm / cold /
// spill / moved partition, per-pool jobs and rejects).
type RouteCounts = cluster.RouteCounts

// Cluster shards the job-serving layer across several independently
// configured pools behind a pluggable routing policy — one pool per
// NUMA node, socket, or machine shard. Each member pool keeps its own
// workers, admission window, tracer, and metrics registry; the cluster
// routes each submitted job to one pool and accounts for the locality
// of that choice. See docs/CLUSTER.md.
type Cluster struct {
	cl    *cluster.Cluster
	pools []*Pool
	reg   *MetricsRegistry
}

// NewCluster starts one pool per entry of workers (each entry is that
// pool's worker count; 0 uses GOMAXPROCS) under the named routing
// policy (RouteRoundRobin, RouteLeastLoaded, RouteAffinity). opts are
// applied to every pool; a WithWorkers among them is overridden by the
// per-pool count. On error, no pools are left running.
func NewCluster(workers []int, policy string, opts ...Option) (*Cluster, error) {
	pools := make([]*Pool, 0, len(workers))
	fail := func(err error) (*Cluster, error) {
		for _, p := range pools {
			p.Close()
		}
		return nil, err
	}
	for i, w := range workers {
		if w < 0 {
			return fail(fmt.Errorf("adws: cluster pool %d: negative worker count %d", i, w))
		}
		poolOpts := opts
		if w > 0 {
			poolOpts = append(append([]Option{}, opts...), WithWorkers(w))
		}
		p, err := NewPool(poolOpts...)
		if err != nil {
			return fail(fmt.Errorf("adws: cluster pool %d: %w", i, err))
		}
		pools = append(pools, p)
	}
	c, err := ClusterOf(policy, pools...)
	if err != nil {
		return fail(err)
	}
	return c, nil
}

// ClusterOf builds a cluster over pools the caller already configured —
// the heterogeneous-shard constructor: each pool keeps whatever worker
// count, scheduler, tracer, and admission window it was created with.
// The cluster takes ownership: Close closes every member pool.
func ClusterOf(policy string, pools ...*Pool) (*Cluster, error) {
	router, err := cluster.ParsePolicy(policy)
	if err != nil {
		return nil, err
	}
	members := make([]*server.Server, len(pools))
	for i, p := range pools {
		members[i] = p.srv
	}
	cl, err := cluster.New(members, router)
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	cl.RegisterMetrics(reg)
	return &Cluster{cl: cl, pools: append([]*Pool(nil), pools...), reg: reg}, nil
}

// Submit routes fn to a pool chosen by the cluster's routing policy and
// admits it there. key is the job's workload key: submissions that
// repeat a key are what the affinity policy keeps on warm caches; an
// empty key disables affinity for the job. Admission errors from the
// chosen pool (ErrOverloaded, ErrDraining, ErrPoolClosed) propagate
// wrapped with the pool id.
func (c *Cluster) Submit(ctx context.Context, key string, fn func(*Ctx) error, h JobHint) (*ClusterJob, error) {
	return c.cl.Submit(ctx, cluster.Request{Key: key, Work: h.Work}, fn, h)
}

// NumPools returns the pool count.
func (c *Cluster) NumPools() int { return len(c.pools) }

// Pool returns member pool i, exposing its per-pool surface (Tracer,
// Metrics, Stats, NumWorkers).
func (c *Cluster) Pool(i int) *Pool { return c.pools[i] }

// Policy returns the routing policy name.
func (c *Cluster) Policy() string { return c.cl.Policy() }

// RouteCounts returns the per-pool routing counters.
func (c *Cluster) RouteCounts() []RouteCounts { return c.cl.RouteCounts() }

// Totals sums the per-pool routing counters.
func (c *Cluster) Totals() RouteCounts { return c.cl.Totals() }

// Job returns a routed job by cluster-wide id, if retained.
func (c *Cluster) Job(id int64) (*ClusterJob, bool) { return c.cl.Job(id) }

// Jobs returns the retained routed jobs in submission order.
func (c *Cluster) Jobs() []*ClusterJob { return c.cl.Jobs() }

// InFlight sums the pools' queue depths and running-job counts.
func (c *Cluster) InFlight() (queued, running int) { return c.cl.InFlight() }

// Workers sums the pools' worker counts.
func (c *Cluster) Workers() int { return c.cl.Workers() }

// Metrics returns the cluster-level registry: routing counters and
// per-pool load gauges (adws_cluster_*). Per-pool scheduler and job
// latency families stay on each member's own Pool.Metrics() registry.
func (c *Cluster) Metrics() *MetricsRegistry { return c.reg }

// Drain drains every pool concurrently.
func (c *Cluster) Drain(ctx context.Context) error { return c.cl.Drain(ctx) }

// Close stops admission and the workers of every pool. Drain first for
// a graceful shutdown.
func (c *Cluster) Close() {
	for _, p := range c.pools {
		p.Close()
	}
}
