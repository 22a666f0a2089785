package runtime

import (
	"sync"
	"testing"

	"github.com/parlab/adws/internal/sched"
	"github.com/parlab/adws/internal/sim"
	"github.com/parlab/adws/internal/topology"
	"github.com/parlab/adws/internal/trace"
)

// TestPlacementMatchesSimulator is the cross-substrate check of the shared
// scheduler core: for one task group of P equal-hint children under
// SL-ADWS on a flat P-worker machine, the real runtime and the simulator
// put every child on the same worker, and that worker is the owner of the
// range sched.Splitter hands the child. No steal can perturb either side:
// the group only becomes dominant when a child completes, and no child
// completes before all of them have started (a rendezvous in the runtime,
// a long compute step in the simulator).
func TestPlacementMatchesSimulator(t *testing.T) {
	const p = 4
	m := topology.Flat(p, 32<<20, 1<<20)

	want := make([]int, p)
	split := sched.NewSplitter(sched.FullRange(0, p), p)
	for k := range want {
		want[k] = split.NextChild(1).Owner()
	}

	pool := NewPool(Config{Machine: m, Policy: ADWS, Seed: 9})
	defer pool.Close()
	onRuntime := make([]int, p)
	var mu sync.Mutex
	started := 0
	all := make(chan struct{})
	pool.Run(func(c *Ctx) {
		g := c.Group(GroupHint{Work: p})
		for k := 0; k < p; k++ {
			g.Spawn(1, func(c *Ctx) {
				mu.Lock()
				onRuntime[k] = c.Worker()
				started++
				if started == p {
					close(all)
				}
				mu.Unlock()
				<-all
			})
		}
		g.Wait()
	})

	// The simulator numbers tasks in creation order: the root is ordinal
	// 1 and child k is ordinal k+2.
	tr := trace.New(p, 1<<10)
	eng := sim.NewEngine(sim.Config{Machine: m, Mode: sim.SLADWS, Seed: 9, Tracer: tr})
	spec := sim.GroupSpec{Work: p}
	for k := 0; k < p; k++ {
		spec.Children = append(spec.Children, sim.Child(1, func(b *sim.B) { b.Compute(1e6) }))
	}
	res := eng.Run(func(b *sim.B) { b.Fork(spec) })
	if d := tr.Drops(); d != 0 {
		t.Fatalf("tracer dropped %d events", d)
	}
	onSim := make([]int, p)
	for _, ev := range tr.Events() {
		if ev.Type == trace.EvTaskBegin && ev.Task >= 2 {
			onSim[ev.Task-2] = int(ev.Worker)
		}
	}
	if res.Steals != 0 || pool.Stats().Steals != 0 {
		t.Fatalf("steals occurred (sim %d, runtime %d): the placement is not the deterministic one",
			res.Steals, pool.Stats().Steals)
	}

	for k := range want {
		if onRuntime[k] != want[k] || onSim[k] != want[k] {
			t.Errorf("child %d: runtime worker %d, simulator worker %d, Splitter owner %d",
				k, onRuntime[k], onSim[k], want[k])
		}
	}
}
