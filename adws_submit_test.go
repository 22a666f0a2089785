package adws

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/parlab/adws/internal/trace"
)

func TestWithAdmissionRejectsNegative(t *testing.T) {
	if _, err := NewPool(WithAdmission(-1, 0)); err == nil {
		t.Error("negative maxInFlight accepted")
	}
	if _, err := NewPool(WithAdmission(0, -1)); err == nil {
		t.Error("negative maxQueue accepted")
	}
}

func TestSubmitRoundTrip(t *testing.T) {
	p, err := NewPool(WithScheduler(ADWS), WithWorkers(4), WithAdmission(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var sum int64
	j, err := p.Submit(context.Background(), func(c *Ctx) error {
		g := c.Group(GroupHint{Work: 8})
		var parts [8]int64
		for i := 0; i < 8; i++ {
			i := i
			g.Spawn(1, func(*Ctx) { parts[i] = int64(i) })
		}
		g.Wait()
		for _, v := range parts {
			sum += v
		}
		return nil
	}, JobHint{Work: 2, Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if sum != 28 {
		t.Errorf("sum = %d, want 28", sum)
	}
	if j.State() != JobDone {
		t.Errorf("state = %v, want JobDone", j.State())
	}
	if got, ok := p.Job(j.ID()); !ok || got != j {
		t.Error("Pool.Job did not return the submitted job")
	}
	if jobs := p.Jobs(); len(jobs) != 1 || jobs[0] != j {
		t.Errorf("Pool.Jobs = %v", jobs)
	}
	if err := p.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(context.Background(), func(*Ctx) error { return nil }, JobHint{}); !errors.Is(err, ErrDraining) {
		t.Errorf("Submit after Drain: err = %v, want ErrDraining", err)
	}
}

func TestSubmitAfterCloseErrors(t *testing.T) {
	p, err := NewPool(WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := p.Submit(context.Background(), func(*Ctx) error { return nil }, JobHint{}); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("Submit after Close: err = %v, want ErrPoolClosed", err)
	}
}

// schedulerEvents returns the pool's deterministic scheduling events —
// task spans, waits, and migrations — normalized for comparison (times
// zeroed, sorted by task then type then worker). What an idle worker does
// depends on wall-clock timing — how many steal probes it makes and
// whether it gets as far as parking before work arrives — so steal-probe
// and park/wake events are excluded; on the workloads below no successful
// steals occur, so the remaining events fully describe the worker
// assignment. Call it after Close: Run and Job.Wait return when the root
// body finishes, before its worker has recorded the root's task-end.
func schedulerEvents(p *Pool) []TraceEvent {
	var out []TraceEvent
	for _, ev := range p.Tracer().Events() {
		switch ev.Type {
		case trace.EvStealAttempt, trace.EvStealSuccess, trace.EvStealFail,
			trace.EvPark, trace.EvWake:
			continue
		}
		ev.Time = 0
		out = append(out, ev)
	}
	sort.Slice(out, func(i, k int) bool {
		a, b := out[i], out[k]
		if a.Task != b.Task {
			return a.Task < b.Task
		}
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		return a.Worker < b.Worker
	})
	return out
}

// TestSubmitMatchesRunSingleWorker pins the acceptance criterion exactly:
// on a fresh 1-worker ADWS pool, a single Submit produces the identical
// scheduling trace (same tasks, same workers, same ranges, same job
// ordinal) as an equivalent Run on an identically configured pool.
func TestSubmitMatchesRunSingleWorker(t *testing.T) {
	body := func(c *Ctx) {
		var rec func(c *Ctx, d int)
		rec = func(c *Ctx, d int) {
			if d == 0 {
				return
			}
			g := c.Group(GroupHint{Work: 2})
			g.Spawn(1, func(c *Ctx) { rec(c, d-1) })
			g.Spawn(1, func(c *Ctx) { rec(c, d-1) })
			g.Wait()
		}
		rec(c, 4)
	}
	mk := func() *Pool {
		p, err := NewPool(WithScheduler(ADWS), WithWorkers(1), WithTracing(1<<14), WithSeed(9))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	p1 := mk()
	p1.Run(body)
	p1.Close()
	viaRun := schedulerEvents(p1)

	p2 := mk()
	j, err := p2.Submit(context.Background(), func(c *Ctx) error { body(c); return nil }, JobHint{Work: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	p2.Close()
	viaSubmit := schedulerEvents(p2)

	if len(viaRun) == 0 {
		t.Fatal("Run produced no scheduler events")
	}
	if len(viaRun) != len(viaSubmit) {
		t.Fatalf("event counts differ: Run %d, Submit %d", len(viaRun), len(viaSubmit))
	}
	for i := range viaRun {
		if viaRun[i] != viaSubmit[i] {
			t.Fatalf("event %d differs:\nRun:    %+v\nSubmit: %+v", i, viaRun[i], viaSubmit[i])
		}
	}
}

// TestSubmitMatchesRunFourWorkers extends the acceptance check to a
// 4-worker ADWS pool: four equal-hint children rendezvous on a barrier,
// forcing each onto its deterministically assigned worker with empty
// queues (so no steal can perturb the assignment). Run and Submit must
// place the same tasks on the same workers with the same ranges.
func TestSubmitMatchesRunFourWorkers(t *testing.T) {
	mkBody := func() func(*Ctx) {
		var mu sync.Mutex
		started := 0
		all := make(chan struct{})
		return func(c *Ctx) {
			g := c.Group(GroupHint{Work: 4})
			for i := 0; i < 4; i++ {
				g.Spawn(1, func(*Ctx) {
					mu.Lock()
					started++
					if started == 4 {
						close(all)
					}
					mu.Unlock()
					<-all
				})
			}
			g.Wait()
		}
	}
	mk := func() *Pool {
		p, err := NewPool(WithScheduler(ADWS), WithWorkers(4), WithTracing(1<<14), WithSeed(9))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	p1 := mk()
	p1.Run(mkBody())
	p1.Close()
	viaRun := schedulerEvents(p1)

	p2 := mk()
	body := mkBody()
	j, err := p2.Submit(context.Background(), func(c *Ctx) error { body(c); return nil }, JobHint{Work: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	p2.Close()
	viaSubmit := schedulerEvents(p2)

	if len(viaRun) != len(viaSubmit) {
		t.Fatalf("event counts differ: Run %d, Submit %d", len(viaRun), len(viaSubmit))
	}
	workers := make(map[int32]bool)
	for i := range viaRun {
		if viaRun[i] != viaSubmit[i] {
			t.Fatalf("event %d differs:\nRun:    %+v\nSubmit: %+v", i, viaRun[i], viaSubmit[i])
		}
		workers[viaRun[i].Worker] = true
	}
	if len(workers) != 4 {
		t.Errorf("tasks ran on %d workers, want all 4", len(workers))
	}
}

// TestNestedPanicDoesNotWedgePool submits a job whose root spawns two
// children, one of which panics inside the root's helping wait, and then
// 100 empty jobs: the first job must fail with the panic, and the worker
// it unwound through must go on claiming roots.
func TestNestedPanicDoesNotWedgePool(t *testing.T) {
	for _, s := range []Scheduler{ADWS, WorkStealing} {
		for n := 2; n <= 4; n++ {
			t.Run(fmt.Sprintf("%v/w%d", s, n), func(t *testing.T) {
				p, err := NewPool(WithScheduler(s), WithWorkers(n))
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
				wait := func(j *Job) error {
					ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
					defer cancel()
					return j.Wait(ctx)
				}

				j, err := p.Submit(context.Background(), func(c *Ctx) error {
					root := c.Worker()
					var panicked atomic.Bool
					g := c.Group(GroupHint{Work: 2})
					for i := 0; i < 2; i++ {
						g.Spawn(1, func(c *Ctx) {
							// Only a child nested in the root's wait may
							// panic: on a thief's stack no recover catches it.
							if c.Worker() == root && panicked.CompareAndSwap(false, true) {
								panic("boom")
							}
						})
					}
					g.Wait()
					panic("boom") // both children were stolen
				}, JobHint{})
				if err != nil {
					t.Fatal(err)
				}
				if err := wait(j); err == nil || err.Error() != "job 1 panicked: boom" {
					t.Fatalf("job 1: err = %v, want job 1 panicked: boom", err)
				}
				if st := j.State(); st != JobFailed {
					t.Fatalf("job 1: state = %v, want JobFailed", st)
				}
				for i := 0; i < 100; i++ {
					j, err := p.Submit(context.Background(), func(*Ctx) error { return nil }, JobHint{})
					if err != nil {
						t.Fatal(err)
					}
					if err := wait(j); err != nil {
						t.Fatalf("job %d after the panic: %v", j.ID(), err)
					}
				}
			})
		}
	}
}
