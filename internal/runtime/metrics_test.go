package runtime

import (
	gort "runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/parlab/adws/internal/metrics"
	"github.com/parlab/adws/internal/topology"
	"github.com/parlab/adws/internal/trace"
)

// newMetricsPool builds a flat pool whose latency histograms are
// registered on a registry the test can read them back from.
func newMetricsPool(t *testing.T, policy Policy, workers int) (*Pool, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	p := NewPool(Config{
		Machine:  topology.Flat(workers, 32<<20, 1<<20),
		Policy:   policy,
		Seed:     42,
		Registry: reg,
	})
	t.Cleanup(p.Close)
	return p, reg
}

// TestWakeToRunSpuriousWake pins the spurious-wake rule: a park wakeup
// that never leads to a task (the woken worker re-parks) must not record
// a wake-to-run sample, while a wakeup that does obtain a task must.
// Without the rule, every idle-pool wake would pollute the distribution
// with park-to-park durations.
func TestWakeToRunSpuriousWake(t *testing.T) {
	p, reg := newMetricsPool(t, ADWS, 4)
	wakeToRun := reg.FindHistogram("adws_wake_to_run_seconds")
	var s int64
	p.Run(func(c *Ctx) { treeSum(c, 0, 200, &s, 0) })
	awaitFullyParked(t, p)

	base := wakeToRun.Snapshot().Count
	parksBefore := p.Stats().Parks
	// Wake one parked worker with no work published: the wake is spurious
	// by construction and the worker re-parks.
	if !p.tryWake(p.workers[0]) {
		t.Fatal("could not wake a parked worker")
	}
	awaitFullyParked(t, p)

	if got := wakeToRun.Snapshot().Count; got != base {
		t.Errorf("spurious wake recorded wake-to-run samples: count %d -> %d", base, got)
	}
	if got := p.Stats().Parks; got <= parksBefore {
		t.Errorf("spuriously woken worker did not re-park: parks %d -> %d", parksBefore, got)
	}

	// A wakeup that obtains a task must record: submit real work into the
	// fully parked pool.
	var ran atomic.Bool
	j, err := p.SubmitRoot(func(c *Ctx) { ran.Store(true) }, 0, 1)
	if err != nil {
		t.Fatalf("SubmitRoot: %v", err)
	}
	waitRoot(t, j)
	if !ran.Load() {
		t.Fatal("root did not run")
	}
	if got := wakeToRun.Snapshot().Count; got <= base {
		t.Errorf("real wake recorded no wake-to-run sample: count still %d", got)
	}
}

// TestMetricsParityWithStats pins the 1:1 pairing between histogram
// records and the scheduler counters they instrument: every completed
// park (== a wake) records exactly one park duration, and every victim
// probe records exactly one steal-attempt latency.
func TestMetricsParityWithStats(t *testing.T) {
	for _, pol := range []Policy{WS, ADWS} {
		p, reg := newMetricsPool(t, pol, 4)
		for i := 0; i < 3; i++ {
			var s int64
			p.Run(func(c *Ctx) { treeSum(c, 0, 2000, &s, 0) })
		}
		awaitFullyParked(t, p)

		st := p.Stats()
		if got := reg.FindHistogram("adws_park_seconds").Snapshot().Count; got != st.Wakes {
			t.Errorf("%v: park histogram count %d, want %d (== wakes)", pol, got, st.Wakes)
		}
		if got := reg.FindHistogram("adws_steal_attempt_seconds").Snapshot().Count; got != st.StealAttempts {
			t.Errorf("%v: steal-attempt histogram count %d, want %d (== steal attempts)",
				pol, got, st.StealAttempts)
		}
		if st.StealAttempts == 0 {
			t.Errorf("%v: run made no steal attempts; parity check is vacuous", pol)
		}
	}
}

// TestSinksAgree pins that every sink of a park/wake cycle and of a
// steal probe sees the same clock reads. The matched EvPark → EvWake spans
// must equal the park histogram exactly, and each EvStealAttempt's span to
// the worker's next steal event (the next attempt, the success or the
// round's fail) must sum to the probe histogram, one sample per attempt.
func TestSinksAgree(t *testing.T) {
	const workers = 4
	for _, pol := range []Policy{WS, ADWS} {
		reg := metrics.NewRegistry()
		tr := trace.New(workers, 1<<18)
		p := NewPool(Config{
			Machine:  topology.Flat(workers, 32<<20, 1<<20),
			Policy:   pol,
			Seed:     42,
			Tracer:   tr,
			Registry: reg,
		})
		for i := 0; i < 3; i++ {
			var s int64
			p.Run(func(c *Ctx) { treeSum(c, 0, 2000, &s, 0) })
		}
		awaitFullyParked(t, p)
		p.Close() // wakes every parked worker, then quiesces them
		if d := tr.Drops(); d != 0 {
			t.Fatalf("%v: %d events dropped; enlarge the test ring", pol, d)
		}

		var parks, parkNS, attempts, probeNS int64
		events := tr.Events()
		for w := 0; w < workers; w++ {
			var parkAt, attemptAt int64
			inPark, inProbe := false, false
			for _, ev := range events {
				if int(ev.Worker) != w {
					continue
				}
				switch ev.Type {
				case trace.EvPark:
					parkAt, inPark = ev.Time, true
				case trace.EvWake:
					if inPark {
						parks++
						parkNS += ev.Time - parkAt
						inPark = false
					}
				case trace.EvStealAttempt, trace.EvStealSuccess, trace.EvStealFail:
					if inProbe {
						probeNS += ev.Time - attemptAt
						inProbe = false
					}
					if ev.Type == trace.EvStealAttempt {
						attempts++
						attemptAt, inProbe = ev.Time, true
					}
				}
			}
		}
		park := reg.FindHistogram("adws_park_seconds").Snapshot()
		probe := reg.FindHistogram("adws_steal_attempt_seconds").Snapshot()
		if park.Count != parks || park.Sum != parkNS {
			t.Errorf("%v: park histogram count %d sum %dns, trace spans %d sum %dns",
				pol, park.Count, park.Sum, parks, parkNS)
		}
		st := p.Stats()
		if probe.Count != st.StealAttempts || attempts != st.StealAttempts {
			t.Errorf("%v: probe histogram count %d, trace attempts %d, want %d (== steal attempts)",
				pol, probe.Count, attempts, st.StealAttempts)
		}
		if probe.Sum != probeNS {
			t.Errorf("%v: probe histogram sum %dns, trace probe spans sum %dns", pol, probe.Sum, probeNS)
		}
		if parks == 0 || attempts == 0 {
			t.Errorf("%v: %d parks, %d attempts; agreement check is vacuous", pol, parks, attempts)
		}
	}
}

// TestHelpingWaitIdleIsIdle pins the idle clock inside a helping wait: a
// parent that waits about 20ms on a child another worker runs spends that
// time searching and parked, which Stats must report as the waiter's
// idle time, not as busy time of the task that waited.
func TestHelpingWaitIdleIsIdle(t *testing.T) {
	const sleep = 20 * time.Millisecond
	for _, pol := range []Policy{WS, ADWS} {
		p := newFlatPool(t, pol, 2)
		before := p.Stats()
		waiter := -1
		p.Run(func(c *Ctx) {
			waiter = c.Worker()
			var started atomic.Bool
			g := c.Group(GroupHint{Work: 2})
			// The first child is the one the other worker takes: ADWS
			// migrates it, and a WS thief steals the oldest task.
			g.Spawn(1, func(*Ctx) {
				started.Store(true)
				time.Sleep(sleep)
			})
			g.Spawn(1, func(*Ctx) {})
			// Not waiting yet, so the parent cannot run the sleeper itself.
			for deadline := time.Now().Add(5 * time.Second); !started.Load() && time.Now().Before(deadline); {
				gort.Gosched()
			}
			g.Wait()
		})
		after := p.Stats()
		busy := after.PerWorker[waiter].BusyNS - before.PerWorker[waiter].BusyNS
		idle := after.PerWorker[waiter].IdleNS - before.PerWorker[waiter].IdleNS
		if idle < int64(sleep)*3/4 {
			t.Errorf("%v: waiter idle %v over a ~%v wait, want most of it", pol,
				time.Duration(idle), sleep)
		}
		if busy > int64(sleep)/2 {
			t.Errorf("%v: waiter busy %v over a ~%v wait, want the wait charged as idle", pol,
				time.Duration(busy), sleep)
		}
	}
}
