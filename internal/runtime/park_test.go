package runtime

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/parlab/adws/internal/topology"
)

// awaitFullyParked polls until every worker has advertised itself parked.
func awaitFullyParked(t *testing.T, p *Pool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.nparked.Load() != int32(p.NumWorkers()) {
		if time.Now().After(deadline) {
			t.Fatalf("pool did not fully park: nparked=%d of %d",
				p.nparked.Load(), p.NumWorkers())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIdlePoolParks pins the tentpole behavior of the parking rework: an
// idle pool blocks instead of polling. After a run drains, every worker
// must park, and over a ~200ms idle window the pool must make zero steal
// attempts and zero park/wake cycles (the old timed-wait design woke every
// worker every 50-200ms to re-scan).
func TestIdlePoolParks(t *testing.T) {
	p := newFlatPool(t, ADWS, 4)
	var s int64
	p.Run(func(c *Ctx) { treeSum(c, 0, 200, &s, 0) })
	awaitFullyParked(t, p)

	before := p.Stats()
	if before.Parks == 0 {
		t.Error("no parks recorded on an idle pool")
	}
	time.Sleep(200 * time.Millisecond)
	after := p.Stats()

	if after.StealAttempts != before.StealAttempts {
		t.Errorf("idle pool attempted steals: %d -> %d",
			before.StealAttempts, after.StealAttempts)
	}
	if after.Parks != before.Parks || after.Wakes != before.Wakes {
		t.Errorf("idle pool cycled its parkers: parks %d -> %d, wakes %d -> %d",
			before.Parks, after.Parks, before.Wakes, after.Wakes)
	}
	if got := p.nparked.Load(); got != int32(p.NumWorkers()) {
		t.Errorf("idle pool has %d parked workers, want %d", got, p.NumWorkers())
	}
}

// TestSubmitIntoParkedPool checks the other half of the parking contract:
// a root submitted to a fully parked pool is picked up promptly by a
// targeted wakeup, not stranded until some timeout fires.
func TestSubmitIntoParkedPool(t *testing.T) {
	for _, pol := range testPolicies {
		p := newTestPool(t, pol)
		p.Run(func(c *Ctx) {
			var s int64
			treeSum(c, 0, 100, &s, 0)
		})
		awaitFullyParked(t, p)

		start := time.Now()
		var ran atomic.Bool
		j, err := p.SubmitRoot(func(c *Ctx) { ran.Store(true) }, 0, 1)
		if err != nil {
			t.Fatalf("%v: SubmitRoot: %v", pol, err)
		}
		waitRoot(t, j)
		if !ran.Load() {
			t.Errorf("%v: root did not run", pol)
		}
		// Generous bound: the old design's floor was a 50ms wait timeout;
		// a targeted wake completes in microseconds even on a loaded CI
		// machine.
		if el := time.Since(start); el > 5*time.Second {
			t.Errorf("%v: submit into parked pool took %v", pol, el)
		}
	}
}

// TestCloseFailsUnclaimedRoots pins the Close drain: a root still sitting
// in the queue when Close runs must fail with ErrClosed (Done closed, Err
// set) instead of stranding its waiters forever.
func TestCloseFailsUnclaimedRoots(t *testing.T) {
	p := NewPool(Config{Machine: topology.Flat(1, 32<<20, 1<<20), Policy: ADWS, Seed: 7})
	started := make(chan struct{})
	gate := make(chan struct{})
	j1, err := p.SubmitRoot(func(c *Ctx) {
		close(started)
		<-gate
	}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// The only worker is pinned inside j1's body (only the top of its
	// scheduler loop claims roots), so j2 stays queued and unclaimed.
	j2, err := p.SubmitRoot(func(c *Ctx) { t.Error("orphaned root ran") }, 0, 1)
	if err != nil {
		t.Fatal(err)
	}

	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()

	select {
	case <-j2.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not fail the unclaimed root")
	}
	if !errors.Is(j2.Err(), ErrClosed) {
		t.Errorf("orphaned root Err = %v, want ErrClosed", j2.Err())
	}

	close(gate)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the running root finished")
	}
	waitRoot(t, j1)
	if j1.Err() != nil {
		t.Errorf("completed root Err = %v, want nil", j1.Err())
	}
}

// TestStatsConcurrentPoll is the -race regression for polling Stats during
// a run: the BusyNS derivation reads counters a worker is concurrently
// updating, and the transient negative difference must be clamped, never
// reported.
func TestStatsConcurrentPoll(t *testing.T) {
	p := newFlatPool(t, ADWS, 4)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := p.Stats()
			if st.BusyNS < 0 {
				t.Errorf("aggregate BusyNS = %d, want >= 0", st.BusyNS)
				return
			}
			for _, ws := range st.PerWorker {
				if ws.BusyNS < 0 {
					t.Errorf("worker %d BusyNS = %d, want >= 0", ws.Worker, ws.BusyNS)
					return
				}
			}
		}
	}()
	for i := 0; i < 5; i++ {
		var s int64
		p.Run(func(c *Ctx) { treeSum(c, 0, 2000, &s, 0) })
	}
	close(stop)
	wg.Wait()
}
