package adws

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(nil, RouteRoundRobin); err == nil {
		t.Error("empty worker list accepted")
	}
	if _, err := NewCluster([]int{2, 2}, "random"); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := NewCluster([]int{2, -1}, RouteRoundRobin); err == nil {
		t.Error("negative worker count accepted")
	}
	if got := RoutingPolicies(); len(got) != 3 {
		t.Errorf("RoutingPolicies() = %v, want 3 policies", got)
	}
}

func TestClusterRoundTrip(t *testing.T) {
	c, err := NewCluster([]int{2, 3}, RouteAffinity,
		WithScheduler(ADWS), WithAdmission(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.NumPools() != 2 {
		t.Fatalf("NumPools() = %d", c.NumPools())
	}
	if c.Workers() != 5 {
		t.Errorf("Workers() = %d, want 5 (per-pool counts override shared opts)", c.Workers())
	}
	if c.Pool(1).NumWorkers() != 3 {
		t.Errorf("pool 1 workers = %d, want 3", c.Pool(1).NumWorkers())
	}
	if c.Policy() != RouteAffinity {
		t.Errorf("Policy() = %q", c.Policy())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var jobs []*ClusterJob
	for round := 0; round < 3; round++ {
		for _, key := range []string{"qs", "kd", "mm"} {
			var n atomic.Int64
			j, err := c.Submit(context.Background(), key, func(cx *Ctx) error {
				g := cx.Group(GroupHint{Work: 4})
				for i := 0; i < 4; i++ {
					g.Spawn(1, func(*Ctx) { n.Add(1) })
				}
				g.Wait()
				return nil
			}, JobHint{Work: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			if j.State() != JobDone {
				t.Fatalf("job %d state = %v", j.ClusterID(), j.State())
			}
			if n.Load() != 4 {
				t.Errorf("job %d ran %d of its 4 tasks", j.ClusterID(), n.Load())
			}
			jobs = append(jobs, j)
		}
	}
	// Repeats stay on their warm pool under affinity.
	for i := 3; i < len(jobs); i++ {
		if jobs[i].Pool() != jobs[i%3].Pool() {
			t.Errorf("job %d (key %d) on pool %d, first run on pool %d",
				i, i%3, jobs[i].Pool(), jobs[i%3].Pool())
		}
	}
	tot := c.Totals()
	if tot.Jobs != 9 || tot.Cold != 3 || tot.Warm != 6 {
		t.Errorf("totals = %+v, want 9 jobs, 3 cold, 6 warm", tot)
	}
	if got, ok := c.Job(jobs[0].ClusterID()); !ok || got != jobs[0] {
		t.Error("Cluster.Job lookup failed")
	}
	if got := c.Jobs(); len(got) != 9 {
		t.Errorf("Jobs() returned %d jobs", len(got))
	}

	// The cluster registry renders the routing families.
	var b strings.Builder
	if err := c.Metrics().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"adws_cluster_pools 2",
		`adws_cluster_routed_total{pool="0",policy="affinity",verdict="warm"}`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}
	if err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}
