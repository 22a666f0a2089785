package cluster

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/parlab/adws/internal/metrics"
	"github.com/parlab/adws/internal/runtime"
	"github.com/parlab/adws/internal/server"
	"github.com/parlab/adws/internal/topology"
	"github.com/parlab/adws/internal/trace"
)

// testCluster is N traced 2-worker ADWS pools behind the given router.
type testCluster struct {
	*Cluster
	tracers []*trace.Tracer
}

func newTestCluster(t *testing.T, npools int, router Router) *testCluster {
	t.Helper()
	pools := make([]*server.Server, npools)
	tracers := make([]*trace.Tracer, npools)
	for i := range pools {
		tr := trace.New(2, 1<<15)
		p := runtime.NewPool(runtime.Config{
			Machine: topology.Flat(2, 32<<20, 1<<20),
			Policy:  runtime.ADWS,
			Seed:    uint64(42 + i),
			Tracer:  tr,
		})
		t.Cleanup(p.Close)
		s := server.New(p, server.Config{MaxInFlight: 2, MaxQueue: 8})
		t.Cleanup(s.Close)
		pools[i] = s
		tracers[i] = tr
	}
	c, err := New(pools, router)
	if err != nil {
		t.Fatal(err)
	}
	return &testCluster{Cluster: c, tracers: tracers}
}

func waitJob(t *testing.T, j *Job) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("job %d (pool %d): %v", j.ClusterID(), j.Pool(), err)
	}
}

// spinBody spawns enough tasks to leave a recognizable trace slice.
func spinBody(c *runtime.Ctx) error {
	g := c.Group(runtime.GroupHint{})
	for i := 0; i < 8; i++ {
		g.Spawn(1, func(c *runtime.Ctx) {
			g2 := c.Group(runtime.GroupHint{})
			for k := 0; k < 4; k++ {
				g2.Spawn(1, func(*runtime.Ctx) {})
			}
			g2.Wait()
		})
	}
	g.Wait()
	return nil
}

// repeatedStream submits rounds×len(keys) jobs, cycling through keys in
// order and waiting for each before submitting the next (an iterative
// workload re-running its computations). Returns the jobs in order.
func repeatedStream(t *testing.T, c *Cluster, keys []string, rounds int) []*Job {
	t.Helper()
	var jobs []*Job
	for r := 0; r < rounds; r++ {
		for _, k := range keys {
			j, err := c.Submit(context.Background(), Request{Key: k, Work: 1}, spinBody, server.Hint{Work: 1})
			if err != nil {
				t.Fatal(err)
			}
			waitJob(t, j)
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// TestAffinityWarmHitRateBeatsRoundRobin drives the same repeated-
// workload stream through an affinity cluster and a round-robin cluster
// and pins the locality gap both in the routing counters and in the
// per-pool, per-job trace slices: under affinity every repeat of a key
// runs on the one pool that key warmed (all its trace slices sit on one
// tracer); under round-robin with a key count coprime to the pool count
// the same key's runs smear across pools.
func TestAffinityWarmHitRateBeatsRoundRobin(t *testing.T) {
	// 7 keys over 2 pools: coprime, so round-robin alternates each key's
	// pool every round and gets zero warm hits.
	keys := []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6"}
	const rounds = 3

	aff := newTestCluster(t, 2, NewAffinity())
	affJobs := repeatedStream(t, aff.Cluster, keys, rounds)
	rr := newTestCluster(t, 2, NewRoundRobin())
	rrJobs := repeatedStream(t, rr.Cluster, keys, rounds)

	affTotals, rrTotals := aff.Totals(), rr.Totals()
	wantJobs := int64(len(keys) * rounds)
	if affTotals.Jobs != wantJobs || rrTotals.Jobs != wantJobs {
		t.Fatalf("routed jobs = %d / %d, want %d", affTotals.Jobs, rrTotals.Jobs, wantJobs)
	}
	// Affinity: first round cold, every later round warm (sequential
	// stream never overloads a pool, so no spills).
	if want := int64(len(keys) * (rounds - 1)); affTotals.Warm != want || affTotals.Cold != int64(len(keys)) {
		t.Errorf("affinity warm/cold = %d/%d, want %d/%d",
			affTotals.Warm, affTotals.Cold, want, len(keys))
	}
	if affTotals.Spill != 0 || affTotals.Moved != 0 {
		t.Errorf("affinity spill/moved = %d/%d, want 0/0", affTotals.Spill, affTotals.Moved)
	}
	// Round-robin with 7 keys on 2 pools: every repeat lands on the other
	// pool — zero warm hits, all repeats Moved.
	if rrTotals.Warm != 0 || rrTotals.Moved != int64(len(keys)*(rounds-1)) {
		t.Errorf("round-robin warm/moved = %d/%d, want 0/%d",
			rrTotals.Warm, rrTotals.Moved, len(keys)*(rounds-1))
	}
	if affTotals.WarmRate() <= rrTotals.WarmRate() {
		t.Errorf("affinity warm rate %.2f not above round-robin %.2f",
			affTotals.WarmRate(), rrTotals.WarmRate())
	}

	// Trace attribution: drain, then slice each pool's trace by job and
	// count the pools each key's jobs actually ran tasks on.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := aff.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rr.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	poolsPerKey := func(tc *testCluster, jobs []*Job, keys []string) map[string]map[int]bool {
		events := make([][]trace.Event, len(tc.tracers))
		for i, tr := range tc.tracers {
			events[i] = tr.Events()
		}
		out := make(map[string]map[int]bool)
		for i, j := range jobs {
			key := keys[i%len(keys)]
			js := trace.Summarize(trace.FilterJob(events[j.Pool()], j.TraceID()), 2)
			if js.Tasks == 0 {
				t.Errorf("job %d (key %s): no task events on pool %d's trace", j.ClusterID(), key, j.Pool())
			}
			if out[key] == nil {
				out[key] = make(map[int]bool)
			}
			out[key][j.Pool()] = true
		}
		return out
	}
	for key, pools := range poolsPerKey(aff, affJobs, keys) {
		if len(pools) != 1 {
			t.Errorf("affinity: key %s ran on %d pools, want 1", key, len(pools))
		}
	}
	var smeared int
	for _, pools := range poolsPerKey(rr, rrJobs, keys) {
		if len(pools) > 1 {
			smeared++
		}
	}
	if smeared != len(keys) {
		t.Errorf("round-robin: %d of %d keys smeared across pools, want all", smeared, len(keys))
	}
}

// TestLeastLoadedAvoidsBusyPool pins routing under skewed job durations:
// with pool 0's running slots pinned by long jobs, a burst of short jobs
// must all land on pool 1.
func TestLeastLoadedAvoidsBusyPool(t *testing.T) {
	c := newTestCluster(t, 2, NewLeastLoaded())
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()
	long := func(*runtime.Ctx) error { <-release; return nil }

	// Pin both of pool 0's running slots with long jobs, submitted
	// directly to the member pool so the router is not consulted.
	var blockers []*server.Job
	for i := 0; i < 2; i++ {
		j, err := c.PoolAt(0).Submit(context.Background(), long, server.Hint{Work: 1})
		if err != nil {
			t.Fatalf("blocker %d: %v", i, err)
		}
		blockers = append(blockers, j)
	}
	// Short jobs, each waited before the next: every routing sees pool 0
	// at 2 pending and pool 1 idle, so all land on pool 1.
	for i := 0; i < 4; i++ {
		j, err := c.Submit(context.Background(), Request{}, spinBody, server.Hint{Work: 1})
		if err != nil {
			t.Fatal(err)
		}
		if j.Pool() != 1 {
			t.Errorf("short job %d routed to pool %d, want 1 (pool 0 pinned)", i, j.Pool())
		}
		waitJob(t, j)
	}
	unblock()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i, b := range blockers {
		if err := b.Wait(ctx); err != nil {
			t.Fatalf("blocker %d: %v", i, err)
		}
	}
	counts := c.RouteCounts()
	if counts[0].Jobs != 0 || counts[1].Jobs != 4 {
		t.Errorf("per-pool routed jobs = %d/%d, want 0/4 (blockers bypassed the router)",
			counts[0].Jobs, counts[1].Jobs)
	}
}

// TestClusterJobLookupAndLifecycle pins the cluster-wide id space,
// retention, rejection wrapping, and drain/close.
func TestClusterJobLookupAndLifecycle(t *testing.T) {
	c := newTestCluster(t, 2, NewRoundRobin())
	j1, err := c.Submit(context.Background(), Request{Key: "a"}, spinBody, server.Hint{})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := c.Submit(context.Background(), Request{Key: "b"}, spinBody, server.Hint{})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j1)
	waitJob(t, j2)
	if j1.ClusterID() != 1 || j2.ClusterID() != 2 {
		t.Errorf("cluster ids = %d, %d, want 1, 2", j1.ClusterID(), j2.ClusterID())
	}
	if j1.Pool() != 0 || j2.Pool() != 1 {
		t.Errorf("pools = %d, %d, want 0, 1 (round-robin)", j1.Pool(), j2.Pool())
	}
	if got, ok := c.Job(2); !ok || got != j2 {
		t.Errorf("Job(2) = %v, %v", got, ok)
	}
	if jobs := c.Jobs(); len(jobs) != 2 || jobs[0] != j1 {
		t.Errorf("Jobs() = %v", jobs)
	}

	// Overload pool 0 (round-robin ignores load): its admission error
	// propagates wrapped, and the reject is counted per pool.
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()
	block := func(*runtime.Ctx) error { <-release; return nil }
	for i := 0; i < 20; i++ { // alternating fills: 2 running + 8 queued per pool
		if _, err := c.Submit(context.Background(), Request{}, block, server.Hint{}); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	_, err = c.Submit(context.Background(), Request{}, block, server.Hint{})
	if !errors.Is(err, server.ErrOverloaded) {
		t.Fatalf("overloaded submit: err = %v, want ErrOverloaded", err)
	}
	if !strings.Contains(err.Error(), "pool 0") {
		t.Errorf("overload error %q does not name the pool", err)
	}
	if counts := c.RouteCounts(); counts[0].Rejected != 1 {
		t.Errorf("pool 0 rejected = %d, want 1", counts[0].Rejected)
	}
}

// TestClusterMetricsExposition renders the routing registry and
// re-parses it with the strict exposition parser.
func TestClusterMetricsExposition(t *testing.T) {
	c := newTestCluster(t, 2, NewAffinity())
	reg := metrics.NewRegistry()
	c.RegisterMetrics(reg)
	repeatedStream(t, c.Cluster, []string{"a", "b", "c"}, 2)

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.ParseText(b.String())
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, b.String())
	}
	byName := make(map[string]metrics.Family)
	for _, f := range fams {
		byName[f.Name] = f
	}
	routed, ok := byName["adws_cluster_routed_total"]
	if !ok {
		t.Fatal("missing adws_cluster_routed_total")
	}
	var warm, total float64
	for _, s := range routed.Samples {
		if s.Labels["policy"] != PolicyAffinity {
			t.Errorf("sample policy = %q, want %q", s.Labels["policy"], PolicyAffinity)
		}
		total += s.Value
		if s.Labels["verdict"] == string(Warm) {
			warm += s.Value
		}
	}
	if total != 6 || warm != 3 {
		t.Errorf("routed total %v warm %v, want 6 and 3", total, warm)
	}
	for _, name := range []string{"adws_cluster_pools", "adws_cluster_pool_queued",
		"adws_cluster_pool_running", "adws_cluster_rejected_total"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("missing family %s", name)
		}
	}
	if v, ok := byName["adws_cluster_pools"].Sample(); !ok || v != 2 {
		t.Errorf("adws_cluster_pools = %v, %v, want 2", v, ok)
	}
}

// TestRouterBoundsChecked pins that a misbehaving router cannot crash
// the cluster.
func TestRouterBoundsChecked(t *testing.T) {
	c := newTestCluster(t, 2, badRouter{})
	if _, err := c.Submit(context.Background(), Request{}, spinBody, server.Hint{}); err == nil {
		t.Fatal("out-of-range route did not error")
	}
}

type badRouter struct{}

func (badRouter) Name() string                       { return "bad" }
func (badRouter) Route(Request, []Snapshot) Decision { return Decision{Pool: 99} }

// TestDrainPropagatesPoolState pins that a drained cluster rejects new
// submissions with the pool's ErrDraining.
func TestDrainPropagatesPoolState(t *testing.T) {
	c := newTestCluster(t, 2, NewLeastLoaded())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	_, err := c.Submit(context.Background(), Request{}, spinBody, server.Hint{})
	if !errors.Is(err, server.ErrDraining) {
		t.Fatalf("submit after drain: err = %v, want ErrDraining", err)
	}
}

// TestWorkersAndInFlight pins the aggregate views.
func TestWorkersAndInFlight(t *testing.T) {
	c := newTestCluster(t, 3, NewRoundRobin())
	if w := c.Workers(); w != 6 {
		t.Errorf("Workers() = %d, want 6", w)
	}
	if q, r := c.InFlight(); q != 0 || r != 0 {
		t.Errorf("idle InFlight() = %d, %d", q, r)
	}
	snaps := c.Snapshots()
	if len(snaps) != 3 || snaps[2].Pool != 2 || snaps[0].Workers != 2 || snaps[0].MaxQueue != 8 {
		t.Errorf("Snapshots() = %+v", snaps)
	}
}

// TestClassLedger pins the per-class routing ledger: admitted jobs count
// under their server-normalized class per pool, Totals merges the maps,
// each pool's QueuedByClass breaks its queued depth down by class, and the
// adws_cluster_routed_by_class_total family renders validly.
func TestClassLedger(t *testing.T) {
	c := newTestCluster(t, 2, NewRoundRobin())
	reg := metrics.NewRegistry()
	c.RegisterMetrics(reg)
	jobs := []*Job{}
	for i, class := range []string{server.ClassBatch, server.ClassInteractive, "", server.ClassBatch} {
		j, err := c.Submit(context.Background(), Request{Key: "k"},
			spinBody, server.Hint{Class: class, Work: float64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		waitJob(t, j)
	}

	tot := c.Totals()
	if tot.Classes[server.ClassBatch] != 2 || tot.Classes[server.ClassInteractive] != 1 ||
		tot.Classes[server.ClassStandard] != 1 {
		t.Errorf("Totals().Classes = %v, want batch 2 / interactive 1 / standard 1 (empty class normalized)", tot.Classes)
	}
	var perPool int64
	for _, ct := range c.RouteCounts() {
		for _, n := range ct.Classes {
			perPool += n
		}
	}
	if perPool != 4 {
		t.Errorf("per-pool class counts sum to %d, want 4", perPool)
	}
	// Mutating a returned copy must not leak into the ledger.
	c.RouteCounts()[0].Classes[server.ClassBatch] = 99
	if got := c.Totals().Classes[server.ClassBatch]; got != 2 {
		t.Errorf("ledger mutated through RouteCounts copy: batch = %d", got)
	}

	for i := 0; i < c.NumPools(); i++ {
		p := c.PoolAt(i)
		byClass := p.QueuedByClass()
		if byClass == nil {
			t.Fatalf("pool %d: QueuedByClass is nil", i)
		}
		sum := 0
		for _, n := range byClass {
			sum += n
		}
		if q, _ := p.InFlight(); sum != q {
			t.Errorf("pool %d: class breakdown sums to %d, Queued = %d", i, sum, q)
		}
	}

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.ParseText(b.String())
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, b.String())
	}
	var byClass float64
	for _, f := range fams {
		if f.Name != "adws_cluster_routed_by_class_total" {
			continue
		}
		for _, s := range f.Samples {
			if s.Labels["class"] == "" || s.Labels["pool"] == "" {
				t.Errorf("sample missing labels: %+v", s)
			}
			byClass += s.Value
		}
	}
	if byClass != 4 {
		t.Errorf("routed_by_class_total sums to %v, want 4", byClass)
	}
}
