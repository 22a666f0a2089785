package runtime

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/parlab/adws/internal/obs"
	"github.com/parlab/adws/internal/topology"
)

// newBenchPoolFlight is newBenchPool with the always-on flight recorder
// attached (the adws façade's default configuration). Comparing against
// the plain benchmarks quantifies the recorder's hot-path cost — the
// Wants filter plus ring writes for the depth<=1 span events — from which
// the recorder budget in EXPERIMENTS.md is measured.
func newBenchPoolFlight(b *testing.B, pol Policy, workers int) *Pool {
	b.Helper()
	p := NewPool(Config{
		Machine: topology.Flat(workers, 32<<20, 1<<20),
		Policy:  pol,
		Seed:    42,
		Flight:  obs.NewRecorder(obs.Config{Workers: workers}),
	})
	b.Cleanup(p.Close)
	return p
}

// BenchmarkSpawnTreeFlight is BenchmarkSpawnTree with the flight
// recorder on: the depth filter rejects every span below depth 1, so
// the per-task cost is the filter check itself.
func BenchmarkSpawnTreeFlight(b *testing.B) {
	const depth = 9
	for _, pol := range []Policy{WS, ADWS} {
		for _, workers := range benchWorkerCounts {
			b.Run(fmt.Sprintf("%v/w%d", pol, workers), func(b *testing.B) {
				p := newBenchPoolFlight(b, pol, workers)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.Run(func(c *Ctx) { spawnTree(c, depth) })
				}
				b.ReportMetric(float64(int(1)<<(depth+1)-2), "tasks/op")
			})
		}
	}
}

// BenchmarkParkedSubmitFlight is BenchmarkParkedSubmit with the flight
// recorder on: every measured op records park/wake transitions and the
// root task's span into the rings.
func BenchmarkParkedSubmitFlight(b *testing.B) {
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			p := newBenchPoolFlight(b, ADWS, workers)
			time.Sleep(5 * time.Millisecond)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j, err := p.SubmitRoot(func(c *Ctx) {}, 0, 1)
				if err != nil {
					b.Fatal(err)
				}
				<-j.Done()
			}
		})
	}
}

// TestFlightConcurrentDump hammers the live-cut path: spawn-heavy jobs
// keep every worker recording while two observer goroutines concurrently
// dump the recorder and take scheduler snapshots. Run under -race this
// pins the frame-swap ring's writer/cutter protocol and the lock-free
// snapshot reads.
func TestFlightConcurrentDump(t *testing.T) {
	const workers = 4
	fr := obs.NewRecorder(obs.Config{Workers: workers, Capacity: 256})
	p := NewPool(Config{
		Machine: topology.Flat(workers, 32<<20, 1<<20),
		Policy:  ADWS,
		Seed:    7,
		Flight:  fr,
	})
	defer p.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			snap := p.SchedSnapshot()
			d := fr.Dump("test", -1, &snap)
			if d.Workers != workers {
				t.Errorf("dump workers = %d, want %d", d.Workers, workers)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for !stop.Load() {
			snap := p.SchedSnapshot()
			if len(snap.Workers) != workers {
				t.Errorf("snapshot has %d workers, want %d", len(snap.Workers), workers)
				return
			}
		}
	}()

	rounds := 50
	if testing.Short() {
		rounds = 10
	}
	for i := 0; i < rounds; i++ {
		p.Run(func(c *Ctx) { spawnTree(c, 7) })
	}
	stop.Store(true)
	wg.Wait()

	// The final dump must still produce a consistent, sorted window.
	d := fr.Dump("final", -1, nil)
	for i := 1; i < len(d.Events); i++ {
		if d.Events[i].Time < d.Events[i-1].Time {
			t.Fatalf("final dump not time-sorted at %d: %v then %v",
				i, d.Events[i-1], d.Events[i])
		}
	}
}

// TestSchedSnapshotLiveJob pins the introspection atomics: while a root
// job is wedged on a worker, the snapshot names its job id with a
// plausible running time; once the pool drains and parks, no worker
// claims a job.
func TestSchedSnapshotLiveJob(t *testing.T) {
	fr := obs.NewRecorder(obs.Config{Workers: 2})
	p := NewPool(Config{
		Machine: topology.Flat(2, 32<<20, 1<<20),
		Policy:  ADWS,
		Seed:    1,
		Flight:  fr,
	})
	defer p.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	j, err := p.SubmitRoot(func(c *Ctx) {
		close(started)
		<-release
	}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	<-started

	snap := p.SchedSnapshot()
	var running *obs.WorkerState
	for i := range snap.Workers {
		if snap.Workers[i].Job == j.ID() {
			running = &snap.Workers[i]
		}
	}
	if running == nil {
		t.Fatalf("no worker reports job %d: %+v", j.ID(), snap.Workers)
	}
	if running.Parked || running.RunningNS < 0 {
		t.Fatalf("running worker state = %+v", running)
	}

	close(release)
	<-j.Done()

	// After the job drains, no snapshot row may still claim it. (Workers
	// may not have parked yet, but curJob is cleared on park and only
	// set while executing.)
	deadline := time.Now().Add(2 * time.Second)
	for {
		stale := false
		for _, ws := range p.SchedSnapshot().Workers {
			if ws.Parked && ws.Job != 0 {
				stale = true
			}
		}
		if !stale {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("parked worker still claims a job")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlightOverheadSmoke is the CI overhead gate: with ADWS_BENCH_SMOKE=1
// (set by scripts/check.sh) it measures the spawn-heavy tree with and
// without the recorder and fails if the recorder-on run exceeds a
// generous 1.5x budget — far above the recorder budget measured offline
// (EXPERIMENTS.md) but tight enough to catch an accidental timestamp or
// allocation on the filtered path.
func TestFlightOverheadSmoke(t *testing.T) {
	if os.Getenv("ADWS_BENCH_SMOKE") != "1" {
		t.Skip("set ADWS_BENCH_SMOKE=1 to run the overhead smoke gate")
	}
	const depth = 9
	run := func(flight bool) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			cfg := Config{
				Machine: topology.Flat(1, 32<<20, 1<<20),
				Policy:  ADWS,
				Seed:    42,
			}
			if flight {
				cfg.Flight = obs.NewRecorder(obs.Config{Workers: 1})
			}
			p := NewPool(cfg)
			defer p.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Run(func(c *Ctx) { spawnTree(c, depth) })
			}
		})
		return float64(r.NsPerOp())
	}
	// Interleave and keep the best of three per config to shave scheduler
	// noise on loaded CI machines.
	best := func(f func(bool) float64, flight bool) float64 {
		m := f(flight)
		for i := 0; i < 2; i++ {
			if v := f(flight); v < m {
				m = v
			}
		}
		return m
	}
	base := best(run, false)
	rec := best(run, true)
	ratio := rec / base
	t.Logf("spawn tree w1: base %.0f ns/op, recorder %.0f ns/op, ratio %.3f", base, rec, ratio)
	if ratio > 1.5 {
		t.Fatalf("flight recorder overhead ratio %.3f exceeds smoke budget 1.5x", ratio)
	}
}
