package runtime

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/parlab/adws/internal/topology"
)

func newFlatPool(t *testing.T, policy Policy, workers int) *Pool {
	t.Helper()
	p := NewPool(Config{
		Machine: topology.Flat(workers, 32<<20, 1<<20),
		Policy:  policy,
		Seed:    42,
	})
	t.Cleanup(p.Close)
	return p
}

// waitRoot fails the test if the root job does not complete in time.
func waitRoot(t *testing.T, j *RootJob) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("root job did not complete")
	}
}

// TestSubmitRootConcurrent injects many roots from many goroutines on
// every policy and checks each runs its whole subtree exactly once.
func TestSubmitRootConcurrent(t *testing.T) {
	for _, pol := range testPolicies {
		p := newTestPool(t, pol)
		const jobs = 12
		var total atomic.Int64
		var wg sync.WaitGroup
		roots := make([]*RootJob, jobs)
		for i := 0; i < jobs; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				lo := float64(i%4) * 0.25
				j, err := p.SubmitRoot(func(c *Ctx) {
					var s int64
					treeSum(c, 0, 200, &s, 0)
					total.Add(s)
				}, lo, lo+0.25)
				if err != nil {
					t.Errorf("%v: SubmitRoot: %v", pol, err)
					return
				}
				roots[i] = j
			}()
		}
		wg.Wait()
		for _, j := range roots {
			if j != nil {
				waitRoot(t, j)
			}
		}
		want := int64(jobs) * 199 * 200 / 2
		if got := total.Load(); got != want {
			t.Errorf("%v: total = %d, want %d", pol, got, want)
		}
	}
}

// TestConcurrentRunSerializes is the -race regression for concurrent Run
// calls: they must serialize, so unsynchronized access from consecutive
// root bodies is race-free.
func TestConcurrentRunSerializes(t *testing.T) {
	for _, pol := range testPolicies {
		p := newTestPool(t, pol)
		shared := 0 // deliberately unsynchronized: Run must serialize
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.Run(func(c *Ctx) {
					shared++
					var s int64
					treeSum(c, 0, 100, &s, 0)
				})
			}()
		}
		wg.Wait()
		if shared != 8 {
			t.Errorf("%v: shared = %d, want 8 (Runs overlapped?)", pol, shared)
		}
	}
}

// TestSubmitRootPlacement pins the fraction-to-worker mapping: a root
// submitted at [lo, hi) starts on the worker owning lo's entity.
func TestSubmitRootPlacement(t *testing.T) {
	p := newFlatPool(t, ADWS, 4)
	for i := 0; i < 4; i++ {
		lo := float64(i) * 0.25
		var worker atomic.Int64
		j, err := p.SubmitRoot(func(c *Ctx) { worker.Store(int64(c.Worker())) }, lo, lo+0.25)
		if err != nil {
			t.Fatal(err)
		}
		waitRoot(t, j)
		if got := worker.Load(); got != int64(i) {
			t.Errorf("root at [%v, %v): ran on worker %d, want %d", lo, lo+0.25, got, i)
		}
		if rng := j.Range(); rng.Owner() != i {
			t.Errorf("root at lo=%v: range %v owner %d, want %d", lo, rng, rng.Owner(), i)
		}
	}
}

// TestSubmitRootClampsRange pins the defensive clamping of out-of-bounds
// but well-ordered fractions.
func TestSubmitRootClampsRange(t *testing.T) {
	p := newFlatPool(t, ADWS, 4)
	for _, tc := range [][2]float64{{-1, 2}, {-0.5, 0.5}, {0.25, 1.75}} {
		j, err := p.SubmitRoot(func(c *Ctx) {}, tc[0], tc[1])
		if err != nil {
			t.Fatalf("SubmitRoot(%v, %v): %v", tc[0], tc[1], err)
		}
		waitRoot(t, j)
		rng := j.Range()
		if rng.X < 0 || rng.Y > 4 || rng.X >= rng.Y {
			t.Errorf("SubmitRoot(%v, %v): range %v out of bounds", tc[0], tc[1], rng)
		}
	}
}

// TestSubmitRootBadRange pins the explicit rejection of invalid ranges: a
// silently remapped range would land a buggy caller's job on the whole
// pool and defeat placement hints, so empty, reversed, and NaN fractions
// must fail loudly with ErrBadRange.
func TestSubmitRootBadRange(t *testing.T) {
	p := newFlatPool(t, ADWS, 4)
	for _, tc := range [][2]float64{
		{0.5, 0.5},               // empty: lo == hi
		{0, 0},                   // empty at the origin
		{0.5, 0.25},              // reversed
		{math.NaN(), 1},          // NaN lo
		{0, math.NaN()},          // NaN hi
		{math.NaN(), math.NaN()}, // both NaN
		{2, 3},                   // empty after clamping (both above 1)
	} {
		j, err := p.SubmitRoot(func(c *Ctx) { t.Error("bad-range root ran") }, tc[0], tc[1])
		if !errors.Is(err, ErrBadRange) {
			t.Errorf("SubmitRoot(%v, %v): err = %v, want ErrBadRange", tc[0], tc[1], err)
		}
		if j != nil {
			t.Errorf("SubmitRoot(%v, %v): returned a job alongside the error", tc[0], tc[1])
		}
	}
}

// TestRootJobCounters checks the live per-job counters: on a fresh pool
// with a single job they must equal the pool-level aggregates.
func TestRootJobCounters(t *testing.T) {
	p := newFlatPool(t, ADWS, 4)
	var s int64
	j, err := p.SubmitRoot(func(c *Ctx) { treeSum(c, 0, 2000, &s, 0) }, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	waitRoot(t, j)
	st := p.Stats()
	if j.Tasks() != st.Tasks {
		t.Errorf("job tasks = %d, pool tasks = %d", j.Tasks(), st.Tasks)
	}
	if j.Steals() != st.Steals {
		t.Errorf("job steals = %d, pool steals = %d", j.Steals(), st.Steals)
	}
	if j.Migrations() != st.Migrations {
		t.Errorf("job migrations = %d, pool migrations = %d", j.Migrations(), st.Migrations)
	}
	if j.Tasks() == 0 {
		t.Error("job recorded no tasks")
	}
}

// TestRootJobTasksConserved runs eight jobs at once on four workers, so
// the workers add to the jobs' per-worker task slots concurrently while
// another goroutine reads them. Once all are done, each job counts exactly
// its own tasks and the jobs together count every task the pool ran.
func TestRootJobTasksConserved(t *testing.T) {
	const jobs, n = 8, 2000
	var treeTasks func(lo, hi int) int64
	treeTasks = func(lo, hi int) int64 {
		if hi-lo <= 4 {
			return 1
		}
		mid := (lo + hi) / 2
		return 1 + treeTasks(lo, mid) + treeTasks(mid, hi)
	}
	want := treeTasks(0, n)
	for _, pol := range []Policy{ADWS, WS} {
		p := newFlatPool(t, pol, 4)
		roots := make([]*RootJob, jobs)
		sums := make([]int64, jobs)
		for i := range roots {
			j, err := p.SubmitRoot(func(c *Ctx) { treeSum(c, 0, n, &sums[i], 0) },
				float64(i)/jobs, float64(i+1)/jobs)
			if err != nil {
				t.Fatal(err)
			}
			roots[i] = j
		}
		var live int64
		for _, j := range roots {
			live += j.Tasks() // concurrent with the workers' adds
		}
		var total int64
		for i, j := range roots {
			waitRoot(t, j)
			if got := j.Tasks(); got != want || sums[i] != n*(n-1)/2 {
				t.Errorf("%v job %d: tasks = %d, sum = %d; want %d, %d", pol, i, got, sums[i], want, n*(n-1)/2)
			}
			total += j.Tasks()
		}
		if st := p.Stats(); total != st.Tasks || live > total {
			t.Errorf("%v: jobs count %d tasks (%d live), pool ran %d", pol, total, live, st.Tasks)
		}
	}
}

// TestSubmitRootAfterClose pins the documented ErrClosed error.
func TestSubmitRootAfterClose(t *testing.T) {
	p := NewPool(Config{Machine: topology.Flat(2, 32<<20, 1<<20), Policy: ADWS, Seed: 1})
	p.Close()
	if _, err := p.SubmitRoot(func(c *Ctx) {}, 0, 1); err != ErrClosed {
		t.Errorf("SubmitRoot after Close: err = %v, want ErrClosed", err)
	}
}

// TestRunAfterClosePanics pins the documented panic.
func TestRunAfterClosePanics(t *testing.T) {
	p := NewPool(Config{Machine: topology.Flat(2, 32<<20, 1<<20), Policy: WS, Seed: 1})
	p.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run after Close did not panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "closed") {
			t.Errorf("panic = %v, want message mentioning closed pool", r)
		}
	}()
	p.Run(func(c *Ctx) {})
}

// TestSpawnAfterWaitPanics pins the documented misuse panic: a task group
// is single-shot, Spawn after Wait must fail loudly instead of losing the
// child.
func TestSpawnAfterWaitPanics(t *testing.T) {
	p := newFlatPool(t, ADWS, 2)
	var got any
	p.Run(func(c *Ctx) {
		defer func() { got = recover() }()
		g := c.Group(GroupHint{})
		g.Spawn(1, func(*Ctx) {})
		g.Wait()
		g.Spawn(1, func(*Ctx) {})
	})
	s, ok := got.(string)
	if !ok || !strings.Contains(s, "already waited") {
		t.Errorf("Spawn after Wait: recovered %v, want already-waited panic", got)
	}
}

// TestWaitTwicePanics pins the documented misuse panic for double Wait.
func TestWaitTwicePanics(t *testing.T) {
	p := newFlatPool(t, ADWS, 2)
	var got any
	p.Run(func(c *Ctx) {
		defer func() { got = recover() }()
		g := c.Group(GroupHint{})
		g.Spawn(1, func(*Ctx) {})
		g.Wait()
		g.Wait()
	})
	s, ok := got.(string)
	if !ok || !strings.Contains(s, "twice") {
		t.Errorf("double Wait: recovered %v, want wait-twice panic", got)
	}
}

// TestRunIsSubmitRootFullRange checks Run and a full-range SubmitRoot
// produce identical results and that Run's jobs are visible in the
// job-ordinal sequence (both paths share the root queue).
func TestRunIsSubmitRootFullRange(t *testing.T) {
	p := newFlatPool(t, ADWS, 4)
	var viaRun, viaSubmit int64
	p.Run(func(c *Ctx) { treeSum(c, 0, 500, &viaRun, 0) })
	j, err := p.SubmitRoot(func(c *Ctx) { treeSum(c, 0, 500, &viaSubmit, 0) }, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	waitRoot(t, j)
	if viaRun != viaSubmit {
		t.Errorf("Run sum %d != Submit sum %d", viaRun, viaSubmit)
	}
	if j.ID() < 2 {
		t.Errorf("second root has ordinal %d, want >= 2 (Run consumes ordinals too)", j.ID())
	}
}

// TestSubmitRootCancellationIndependence checks that one job's outcome
// does not disturb concurrently running jobs: a long chain of jobs on
// disjoint ranges all complete while the pool also serves Run traffic.
func TestSubmitRootWithConcurrentRun(t *testing.T) {
	p := newTestPool(t, ADWS)
	stopRun := make(chan struct{})
	var runDone sync.WaitGroup
	runDone.Add(1)
	go func() {
		defer runDone.Done()
		for {
			select {
			case <-stopRun:
				return
			default:
			}
			var s int64
			p.Run(func(c *Ctx) { treeSum(c, 0, 300, &s, 0) })
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < 10; i++ {
		var s int64
		j, err := p.SubmitRoot(func(c *Ctx) { treeSum(c, 0, 300, &s, 0) }, 0.5, 1)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-j.Done():
		case <-ctx.Done():
			t.Fatal("job starved by concurrent Run traffic")
		}
		if s != 299*300/2 {
			t.Errorf("job %d: sum = %d", i, s)
		}
	}
	close(stopRun)
	runDone.Wait()
}
