package runtime

import (
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The work-first path (sched.GroupPlacement.Local): a task group whose
// range lies inside one worker's cell costs what a conventional
// work-stealing group costs, and stays that way wherever a thief takes it.

// treeAllocs returns the allocations of one depth-9 spawn tree whose root
// is placed on the fraction [lo, hi) of a one-worker pool.
func treeAllocs(t *testing.T, pol Policy, lo, hi float64) float64 {
	t.Helper()
	p := newBenchPool(t, pol, 1)
	return testing.AllocsPerRun(50, func() {
		j, err := p.SubmitRoot(func(c *Ctx) { spawnTree(c, 9) }, lo, hi)
		if err != nil {
			t.Error(err)
			return
		}
		<-j.Done()
	})
}

// TestLocalGroupAllocParity pins the allocation count of the local path.
// Placed on [0, 0.5) every group of the tree is worker-local, and ADWS
// allocates exactly what WS does. Placed on [0, 1) the first child of each
// group down the tree's spine gets [0.5, 1), [0.75, 1), …: Y is integral,
// so those 9 groups are cross-worker by the paper's floor(x) != floor(y)
// and pay the full path — one Splitter and one GroupNode each — and
// nothing else does.
func TestLocalGroupAllocParity(t *testing.T) {
	ws, adws := treeAllocs(t, WS, 0, 0.5), treeAllocs(t, ADWS, 0, 0.5)
	if adws != ws {
		t.Errorf("worker-local tree: ADWS %.0f allocs, WS %.0f; want equal", adws, ws)
	}
	const spine = 9
	ws, adws = treeAllocs(t, WS, 0, 1), treeAllocs(t, ADWS, 0, 1)
	if adws != ws+2*spine {
		t.Errorf("whole-range tree: ADWS %.0f allocs, WS %.0f; want WS + %d (the cross-worker spine)",
			adws, ws, 2*spine)
	}
}

// TestSpawnAllocsPerTask pins the heap cost of a spawn. Each task of a
// binary tree allocates its closure and its task (which carries its Ctx),
// and each group is one TaskGroup per two tasks: 2.5 allocations per task,
// plus the root's few (job, done channel, shard slots, root closure and
// task). One more object per group (a taskGroup apart from its handle)
// reads 3.0, one more per task (a Ctx per execution) 3.5.
func TestSpawnAllocsPerTask(t *testing.T) {
	const tasks = 1<<10 - 2 // spawnTree(c, 9)
	const root = 8
	for _, pol := range []Policy{WS, ADWS} {
		got := treeAllocs(t, pol, 0, 0.5)
		if got > 2.5*tasks+root {
			t.Errorf("%v: %.0f allocs for a %d-task tree (%.2f per task), want <= 2.5 per task + %d",
				pol, got, tasks, got/tasks, root)
		}
	}
}

// TestStolenLocalSubtreeStaysLocal steals a worker-local task on a
// four-worker machine and checks the subtree under it: every group is
// Local with no GroupNode, runs on the entity of the worker executing it,
// inherits the root group's node and depth, and migrates nothing.
//
// The root splits [0, 4) into three cross-worker children that migrate to
// workers 3, 2 and 1 (their completion makes the root group dominant and
// anchors those workers' steal ranges in it), the cross-worker child
// [0.75, 1.5) worker 0 executes itself, and three worker-local children
// inside [0, 0.75). Worker 0 holds on to the first local child it runs
// until a thief has taken another.
func TestStolenLocalSubtreeStaysLocal(t *testing.T) {
	p := newBenchPool(t, ADWS, 4)

	var rootGroup atomic.Pointer[taskGroup]
	var groups, offOwner atomic.Int64
	var subtree func(c *Ctx, depth int)
	subtree = func(c *Ctx, depth int) {
		if depth == 0 {
			return
		}
		tg := c.Group(GroupHint{Work: 2})
		g := &tg.g
		groups.Add(1)
		root := rootGroup.Load()
		switch {
		case !g.Local() || g.Node != nil || g.splitter != nil:
			t.Errorf("group under a worker-local task took the full path: %+v", g.GroupPlacement)
		case g.ChildGroup != root.Node || g.ChildDepth != root.ChildDepth:
			t.Errorf("children placed in %v at depth %d, want the root group %v at depth %d",
				g.ChildGroup, g.ChildDepth, root.Node, root.ChildDepth)
		case g.ent.workerID != c.Worker() || c.cur.rng.Owner() != c.Worker() || c.cur.rng.IsCrossWorker():
			t.Errorf("group on entity %d with range %v, executed by worker %d",
				g.ent.workerID, c.cur.rng, c.Worker())
		}
		tg.Spawn(1, func(c *Ctx) { subtree(c, depth-1) })
		tg.Spawn(1, func(c *Ctx) { subtree(c, depth-1) })
		tg.Wait()
	}

	stolen := make(chan struct{})
	var once sync.Once
	local := func(c *Ctx) {
		if c.Worker() != 0 {
			offOwner.Add(1)
			once.Do(func() { close(stolen) })
		} else {
			select {
			case <-stolen:
			case <-time.After(10 * time.Second):
				t.Error("no thief took a worker-local task within 10s")
				once.Do(func() { close(stolen) })
			}
		}
		subtree(c, 6)
	}

	p.Run(func(c *Ctx) {
		tg := c.Group(GroupHint{Work: 4})
		rootGroup.Store(&tg.g)
		tg.Spawn(0.5, func(*Ctx) {})  // [3.5, 4)   → worker 3
		tg.Spawn(1, func(*Ctx) {})    // [2.5, 3.5) → worker 2
		tg.Spawn(1, func(*Ctx) {})    // [1.5, 2.5) → worker 1
		tg.Spawn(0.75, func(*Ctx) {}) // [0.75, 1.5): worker 0's own cross-worker child
		for i := 0; i < 3; i++ {
			tg.Spawn(0.25, local) // inside [0, 0.75): worker-local
		}
		tg.Wait()
	})

	st := p.Stats()
	if offOwner.Load() == 0 || st.Steals == 0 {
		t.Fatalf("no worker-local task was stolen (steals %d)", st.Steals)
	}
	if st.Migrations != 3 {
		t.Errorf("migrations = %d, want 3: only the root group's cross-worker children migrate", st.Migrations)
	}
	if want := int64(3 * (1<<6 - 1)); groups.Load() != want {
		t.Errorf("checked %d groups, want %d", groups.Load(), want)
	}
}

// TestLocalSpawnRatioSmoke is the CI gate on the headline number: with
// ADWS_BENCH_SMOKE=1 (set by scripts/check.sh) it times one-worker spawn
// trees under WS and ADWS in alternating rounds and fails if the median of
// the per-round ADWS : WS ratios exceeds 1.10. Pairing adjacent rounds
// cancels the host's speed drift, and the median ignores the rounds a GC
// cycle or a neighbour disturbed. Ten runs before the local path existed
// read 1.12–1.23, twelve runs with it 1.00–1.09, and six with the owner's
// primary pushes on lock-free rings 1.01–1.03 against 1.04–1.10 for its
// parent, alternated (EXPERIMENTS.md).
func TestLocalSpawnRatioSmoke(t *testing.T) {
	if os.Getenv("ADWS_BENCH_SMOKE") != "1" {
		t.Skip("set ADWS_BENCH_SMOKE=1 to run the ADWS : WS spawn-ratio gate")
	}
	const rounds, trees, depth = 21, 100, 9
	ws, adws := newBenchPool(t, WS, 1), newBenchPool(t, ADWS, 1)
	round := func(p *Pool) float64 {
		start := time.Now()
		for i := 0; i < trees; i++ {
			p.Run(func(c *Ctx) { spawnTree(c, depth) })
		}
		return float64(time.Since(start))
	}
	round(ws) // warm-up
	round(adws)
	ratios := make([]float64, rounds)
	for r := range ratios {
		base := round(ws)
		ratios[r] = round(adws) / base
	}
	sort.Float64s(ratios)
	median := ratios[rounds/2]
	t.Logf("spawn tree w1, %d paired rounds of %d trees: ADWS : WS median %.3f (min %.3f, max %.3f)",
		rounds, trees, median, ratios[0], ratios[rounds-1])
	if median > 1.10 {
		t.Fatalf("ADWS : WS spawn ratio %.3f exceeds the 1.10 gate", median)
	}
}
