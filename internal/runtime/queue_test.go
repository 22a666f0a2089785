package runtime

import (
	gort "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/parlab/adws/internal/sched"
	"github.com/parlab/adws/internal/topology"
)

// queueOwner is the acting worker of the entities these tests build.
const queueOwner = 0

func newQueueEntity() *entity {
	return newEntity(&domain{adws: true}, 0, queueOwner)
}

// queueDepth draws a task depth: mostly shallow, now and then deep enough
// to make the ring index grow.
func queueDepth(r *sched.RNG) int {
	if r.Intn(50) == 0 {
		return r.Intn(40)
	}
	return r.Intn(6)
}

// TestEntityQueueMatchesQueueSet drives an entity and a reference
// sched.QueueSet with the same single-threaded operations. While every
// primary is pushed by the entity's own worker the two must return the same
// task from every operation: rings and inbox together are a QueueSet.
func TestEntityQueueMatchesQueueSet(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := sched.NewRNG(seed, 0)
		e := newQueueEntity()
		var ref sched.QueueSet[*task]
		for op := 0; op < 5000; op++ {
			var got, want *task
			floor := r.Intn(7)
			kind := r.Intn(7)
			switch kind {
			case 0, 1:
				tk := &task{depth: queueDepth(r)}
				e.push(queueOwner, tk, false)
				ref.PushPrimary(tk.depth, tk)
			case 2:
				tk := &task{depth: queueDepth(r)}
				e.push(r.Intn(3), tk, true) // the owner's own migration-family pushes too
				ref.PushMigration(tk.depth, tk)
			case 3, 4:
				got = e.popLocal(floor)
				want, _ = ref.PopLocalFrom(floor)
			case 5:
				got = e.stealMigration(floor)
				want, _ = ref.StealMigration(floor)
			case 6:
				got = e.stealPrimary(floor)
				want, _ = ref.StealPrimary(floor)
			}
			if got != want {
				t.Fatalf("seed %d op %d (kind %d, floor %d): entity returned %+v, QueueSet %+v", seed, op, kind, floor, got, want)
			}
			if e.queueLen() != ref.Len() {
				t.Fatalf("seed %d op %d: queueLen = %d, QueueSet.Len = %d", seed, op, e.queueLen(), ref.Len())
			}
		}
	}
}

// TestEntityQueueForeignPrimaries mixes in primaries pushed by other
// workers, which wait in the inbox instead of a ring. The order among
// primaries is then no longer QueueSet's, but each operation must still
// return a queued task of its own family at or above its floor whenever one
// exists, and every task exactly once.
func TestEntityQueueForeignPrimaries(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := sched.NewRNG(seed, 1)
		e := newQueueEntity()
		queued := map[*task]bool{} // task -> pushed as a migration
		pushed, returned := 0, 0
		eligible := func(floor int, primary, migration bool) bool {
			for tk, mig := range queued {
				if tk.depth >= floor && (mig && migration || !mig && primary) {
					return true
				}
			}
			return false
		}
		take := func(op int, got *task, floor int, primary, migration bool) {
			if got == nil {
				if eligible(floor, primary, migration) {
					t.Fatalf("seed %d op %d: nothing returned at floor %d with an eligible task queued", seed, op, floor)
				}
				return
			}
			mig, ok := queued[got]
			switch {
			case !ok:
				t.Fatalf("seed %d op %d: returned a task that is not queued (twice, or never pushed)", seed, op)
			case got.depth < floor:
				t.Fatalf("seed %d op %d: returned depth %d below floor %d", seed, op, got.depth, floor)
			case mig && !migration, !mig && !primary:
				t.Fatalf("seed %d op %d: returned a task of the wrong family (migration=%v)", seed, op, mig)
			}
			delete(queued, got)
			returned++
		}
		for op := 0; op < 5000; op++ {
			floor := r.Intn(7)
			switch r.Intn(8) {
			case 0, 1, 2:
				tk := &task{depth: queueDepth(r)}
				e.push(r.Intn(3), tk, false) // a third by the owner, the rest foreign
				queued[tk] = false
				pushed++
			case 3:
				tk := &task{depth: queueDepth(r)}
				e.push(r.Intn(3), tk, true)
				queued[tk] = true
				pushed++
			case 4, 5:
				take(op, e.popLocal(floor), floor, true, true)
			case 6:
				take(op, e.stealMigration(floor), floor, false, true)
			case 7:
				take(op, e.stealPrimary(floor), floor, true, false)
			}
			if e.queueLen() != len(queued) {
				t.Fatalf("seed %d op %d: queueLen = %d with %d tasks queued", seed, op, e.queueLen(), len(queued))
			}
		}
		for tk := e.popLocal(0); tk != nil; tk = e.popLocal(0) {
			take(-1, tk, 0, true, true)
		}
		if len(queued) != 0 || returned != pushed {
			t.Fatalf("seed %d: %d of %d tasks returned, %d still queued", seed, returned, pushed, len(queued))
		}
	}
}

// TestPushRoutesByPusher pins the rule that keeps a ring single-producer:
// ring iff a primary is pushed by the entity's own fixed worker.
func TestPushRoutesByPusher(t *testing.T) {
	ringLen := func(e *entity) int { return e.queueLen() - int(e.nInbox.Load()) }
	e := newQueueEntity()
	e.push(queueOwner, &task{depth: 2}, false)
	if ringLen(e) != 1 || e.nInbox.Load() != 0 {
		t.Errorf("own primary: %d in rings, %d in inbox, want 1, 0", ringLen(e), e.nInbox.Load())
	}
	e.push(queueOwner+1, &task{depth: 2}, false)
	if ringLen(e) != 1 || e.nInbox.Load() != 1 {
		t.Errorf("foreign primary: %d in rings, %d in inbox, want 1, 1", ringLen(e), e.nInbox.Load())
	}
	e.push(queueOwner, &task{depth: 2}, true)
	if ringLen(e) != 1 || e.nInbox.Load() != 2 {
		t.Errorf("own migration: %d in rings, %d in inbox, want 1, 2", ringLen(e), e.nInbox.Load())
	}
	// A cache-level entity has no fixed worker: its leader changes, so no
	// push may take a ring.
	c := newEntity(&domain{adws: true}, 0, -1)
	c.push(queueOwner, &task{}, false)
	if ringLen(c) != 0 || c.nInbox.Load() != 1 {
		t.Errorf("cache-level primary: %d in rings, %d in inbox, want 0, 1", ringLen(c), c.nInbox.Load())
	}
}

// TestEntityQueueConcurrent runs one owner (pushing primaries at depths
// that make the index grow mid-run, popping with random floors), thieves
// with random floors and foreign pushers into the inbox, all at once, and
// requires every task to be delivered exactly once and never below the
// floor it was asked for. Run it under -race.
func TestEntityQueueConcurrent(t *testing.T) {
	const (
		ownTasks     = 30000
		foreigners   = 2
		foreignTasks = 4000
		thieves      = 3
		total        = ownTasks + foreigners*foreignTasks
	)
	e := newQueueEntity()
	tasks := make([]task, total)
	delivered := make([]atomic.Int32, total)
	var taken, stolen atomic.Int64
	var pushing sync.WaitGroup // foreign pushers still running
	deliver := func(tk *task, floor int) {
		if tk == nil {
			return
		}
		if tk.depth < floor {
			t.Errorf("task of depth %d returned below floor %d", tk.depth, floor)
		}
		delivered[tk.seq].Add(1)
		taken.Add(1)
	}

	var wg sync.WaitGroup
	for f := 0; f < foreigners; f++ {
		wg.Add(1)
		pushing.Add(1)
		go func(f int) {
			defer wg.Done()
			defer pushing.Done()
			r := sched.NewRNG(7, 10+f)
			for i := 0; i < foreignTasks; i++ {
				tk := &tasks[ownTasks+f*foreignTasks+i]
				tk.seq, tk.depth = int64(ownTasks+f*foreignTasks+i), queueDepth(r)
				e.push(queueOwner+1+f, tk, r.Intn(2) == 0)
				if i%64 == 0 {
					gort.Gosched()
				}
			}
		}(f)
	}
	for th := 0; th < thieves; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			r := sched.NewRNG(7, 20+th)
			for taken.Load() < total {
				floor := r.Intn(8)
				tk := e.stealMigration(floor)
				if tk == nil {
					tk = e.stealPrimary(floor)
				}
				if tk == nil {
					gort.Gosched()
					continue
				}
				stolen.Add(1)
				deliver(tk, floor)
			}
		}(th)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := sched.NewRNG(7, 0)
		for i := 0; i < ownTasks; i++ {
			tk := &tasks[i]
			// The depth ceiling rises with i, so the index grows while
			// thieves are reading it.
			tk.seq, tk.depth = int64(i), r.Intn(2+i*48/ownTasks)
			e.push(queueOwner, tk, false)
			if r.Intn(3) == 0 {
				floor := r.Intn(8)
				deliver(e.popLocal(floor), floor)
			}
			if i%64 == 0 {
				gort.Gosched()
			}
		}
		pushing.Wait()
		for taken.Load() < total {
			deliver(e.popLocal(0), 0)
		}
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		// Unblock the goroutines so the test binary can exit, then report.
		lost := total - taken.Swap(total)
		t.Fatalf("%d of %d tasks were never delivered", lost, total)
	}
	for i := range delivered {
		if n := delivered[i].Load(); n != 1 {
			t.Errorf("task %d delivered %d times", i, n)
		}
	}
	if n := e.queueLen(); n != 0 {
		t.Errorf("queueLen = %d after everything was delivered", n)
	}
	if n := stolen.Load(); n == 0 || n == total {
		t.Errorf("thieves took %d of %d tasks: owner and thieves did not overlap", n, total)
	}
	t.Logf("thieves took %d of %d tasks; the index grew to %d depths", stolen.Load(), total, len(*e.rings.Load()))
}

// TestClampedRebaseForeignPush forces the run in which a primary push is
// foreign, and checks that nothing is lost and that SchedSnapshot counts the
// inbox. On four workers, worker 3 steals a task of range [1.5, 3) from
// entity 1's migration queue; Axis.Rebase cannot put a range 1.5 wide at
// 3.5, clamps it to [2.5, 4), and the task now runs on worker 3 with a range
// owned by entity 2. The group it opens belongs to entity 2, and its
// worker-local children are pushed to entity 2's primary queue by worker 3.
func TestClampedRebaseForeignPush(t *testing.T) {
	const giveUp = 5 * time.Second
	// await spins (a task body must not block its worker's thread for long)
	// until f is set, or gives up so a missed attempt ends and is retried.
	await := func(f *atomic.Bool) {
		for end := time.Now().Add(giveUp); !f.Load() && time.Now().Before(end); {
			gort.Gosched()
		}
	}
	for attempt := 1; ; attempt++ {
		p := NewPool(Config{Machine: topology.Flat(4, 32<<20, 1<<20), Policy: ADWS, Seed: uint64(attempt)})
		var busy atomic.Int32
		var bQueued, release, forced atomic.Bool
		var leaves atomic.Int32

		// Workers 1 and 2 are kept busy by roots of their own, so only
		// worker 3 can take the wide task from entity 1.
		var blockers []*RootJob
		for _, lo := range []float64{0.25, 0.5} {
			j, err := p.SubmitRoot(func(*Ctx) { busy.Add(1); await(&release) }, lo, lo+0.25)
			if err != nil {
				t.Fatal(err)
			}
			blockers = append(blockers, j)
		}
		for end := time.Now().Add(giveUp); busy.Load() < 2; gort.Gosched() {
			if time.Now().After(end) {
				t.Fatal("the blocker roots were not claimed")
			}
		}

		leaf := func(*Ctx) { leaves.Add(1) }
		wide := func(c *Ctx) {
			if c.w.id != 3 {
				release.Store(true)
				return // worker 1 got to it first; try again
			}
			ent2 := p.rootDom.entities[2]
			g := c.Group(GroupHint{Work: 12})
			g.Spawn(6, leaf) // [3.25, 4): migrates to entity 3
			g.Spawn(4, leaf) // [2.75, 3.25): the cross-worker child, run first in Wait
			g.Spawn(1, leaf) // [2.625, 2.75): local to entity 2
			g.Spawn(1, leaf) // [2.5, 2.625): local to entity 2
			if c.cur.rng != (sched.Range{X: 2.5, Y: 4}) || g.g.ent != ent2 {
				t.Errorf("stolen task has range %v and entity %d, want [2.5,4) and entity 2", c.cur.rng, g.g.ent.idx)
			}
			if in, n := ent2.nInbox.Load(), ent2.queueLen(); in != 2 || n != 2 {
				t.Errorf("entity 2 holds %d tasks, %d of them in the inbox; want both local children in the inbox", n, in)
			}
			if snap := p.SchedSnapshot(); snap.Workers[2].QueueLen != 2 {
				t.Errorf("SchedSnapshot: worker 2 QueueLen = %d, want the 2 inbox tasks", snap.Workers[2].QueueLen)
			}
			forced.Store(true)
			release.Store(true)
			g.Wait()
		}
		finished := make(chan struct{})
		go func() {
			defer close(finished)
			p.Run(func(c *Ctx) {
				g := c.Group(GroupHint{Work: 4})
				// [3, 4): worker 3's own; its completion makes the root group
				// dominant, and worker 3 an idle thief with entity 1 in range.
				g.Spawn(1, func(*Ctx) { await(&bQueued) })
				g.Spawn(1.5, wide) // [1.5, 3): migrates to entity 1, whose worker is busy
				bQueued.Store(true)
				// [0, 1.5): worker 0's cross-worker child keeps it from stealing.
				g.Spawn(1.5, func(*Ctx) { await(&release) })
				g.Wait()
			})
			for _, j := range blockers {
				<-j.Done()
			}
		}()
		select {
		case <-finished:
		case <-time.After(30 * time.Second):
			snap := p.SchedSnapshot()
			t.Fatalf("attempt %d: run did not finish: a task was lost\n%+v", attempt, snap.Workers)
		}
		p.Close()
		if forced.Load() {
			if n := leaves.Load(); n != 4 {
				t.Fatalf("%d of 4 children of the stolen task ran", n)
			}
			return
		}
		if attempt == 5 {
			t.Fatal("worker 3 never stole the wide task in 5 attempts")
		}
	}
}
