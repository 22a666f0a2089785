package runtime

import (
	"sync/atomic"
	"testing"

	"github.com/parlab/adws/internal/topology"
)

var testPolicies = []Policy{WS, ADWS, MLWS, MLADWS}

func newTestPool(t *testing.T, policy Policy) *Pool {
	t.Helper()
	p := NewPool(Config{
		Machine: topology.TwoLevel16(),
		Policy:  policy,
		Seed:    42,
	})
	t.Cleanup(p.Close)
	return p
}

func TestRunSimple(t *testing.T) {
	for _, pol := range testPolicies {
		p := newTestPool(t, pol)
		ran := false
		p.Run(func(c *Ctx) { ran = true })
		if !ran {
			t.Errorf("%v: root did not run", pol)
		}
	}
}

// treeSum recursively sums 1..n with fork-join, verifying every task runs
// exactly once and joins correctly.
func treeSum(c *Ctx, lo, hi int, out *int64, sz int64) {
	if hi-lo <= 4 {
		var s int64
		for i := lo; i < hi; i++ {
			s += int64(i)
		}
		atomic.AddInt64(out, s)
		return
	}
	mid := (lo + hi) / 2
	g := c.Group(GroupHint{Work: float64(hi - lo), Size: sz})
	g.Spawn(float64(mid-lo), func(c *Ctx) { treeSum(c, lo, mid, out, sz/2) })
	g.Spawn(float64(hi-mid), func(c *Ctx) { treeSum(c, mid, hi, out, sz/2) })
	g.Wait()
}

func TestTreeSumAllPolicies(t *testing.T) {
	const n = 20000
	want := int64(n) * (n - 1) / 2
	for _, pol := range testPolicies {
		p := newTestPool(t, pol)
		var sum int64
		p.Run(func(c *Ctx) { treeSum(c, 0, n, &sum, 64<<20) })
		if sum != want {
			t.Errorf("%v: sum = %d, want %d", pol, sum, want)
		}
		st := p.Stats()
		if st.Tasks == 0 {
			t.Errorf("%v: no tasks recorded", pol)
		}
	}
}

func TestSequentialGroupsOrdering(t *testing.T) {
	// A second group must observe all side effects of the first.
	for _, pol := range testPolicies {
		p := newTestPool(t, pol)
		var phase1 int64
		var ok atomic.Bool
		ok.Store(true)
		p.Run(func(c *Ctx) {
			g1 := c.Group(GroupHint{Work: 8})
			for i := 0; i < 8; i++ {
				g1.Spawn(1, func(c *Ctx) { atomic.AddInt64(&phase1, 1) })
			}
			g1.Wait()
			if atomic.LoadInt64(&phase1) != 8 {
				ok.Store(false)
			}
			g2 := c.Group(GroupHint{Work: 8})
			for i := 0; i < 8; i++ {
				g2.Spawn(1, func(c *Ctx) {
					if atomic.LoadInt64(&phase1) != 8 {
						ok.Store(false)
					}
				})
			}
			g2.Wait()
		})
		if !ok.Load() {
			t.Errorf("%v: group ordering violated", pol)
		}
	}
}

func TestNestedGroupsDeep(t *testing.T) {
	// Deep nesting with tiny groups exercises the help-inside-wait path.
	for _, pol := range testPolicies {
		p := newTestPool(t, pol)
		var count int64
		var rec func(c *Ctx, d int)
		rec = func(c *Ctx, d int) {
			atomic.AddInt64(&count, 1)
			if d == 0 {
				return
			}
			g := c.Group(GroupHint{Work: 2})
			g.Spawn(1, func(c *Ctx) { rec(c, d-1) })
			g.Spawn(1, func(c *Ctx) { rec(c, d-1) })
			g.Wait()
		}
		p.Run(func(c *Ctx) { rec(c, 10) })
		if want := int64(1<<11 - 1); count != want {
			t.Errorf("%v: count = %d, want %d", pol, count, want)
		}
	}
}

func TestUnbalancedWithHints(t *testing.T) {
	// Skewed work with correct hints under ADWS: all work completes.
	p := newTestPool(t, ADWS)
	var sum int64
	p.Run(func(c *Ctx) {
		g := c.Group(GroupHint{Work: 110})
		g.Spawn(100, func(c *Ctx) {
			for i := 0; i < 100; i++ {
				atomic.AddInt64(&sum, 1)
			}
		})
		g.Spawn(10, func(c *Ctx) {
			for i := 0; i < 10; i++ {
				atomic.AddInt64(&sum, 1)
			}
		})
		g.Wait()
	})
	if sum != 110 {
		t.Errorf("sum = %d, want 110", sum)
	}
}

func TestADWSMigratesDeterministically(t *testing.T) {
	p := newTestPool(t, ADWS)
	var sum int64
	p.Run(func(c *Ctx) { treeSum(c, 0, 100000, &sum, 0) })
	st := p.Stats()
	if st.Migrations == 0 {
		t.Error("ADWS performed no migrations")
	}
}

func TestWSDoesNotMigrate(t *testing.T) {
	p := newTestPool(t, WS)
	var sum int64
	p.Run(func(c *Ctx) { treeSum(c, 0, 100000, &sum, 0) })
	st := p.Stats()
	if st.Migrations != 0 {
		t.Errorf("WS migrated %d tasks", st.Migrations)
	}
	if st.Steals == 0 {
		t.Error("WS performed no steals on a large tree")
	}
}

func TestMultipleRuns(t *testing.T) {
	for _, pol := range testPolicies {
		p := newTestPool(t, pol)
		for rep := 0; rep < 3; rep++ {
			var sum int64
			p.Run(func(c *Ctx) { treeSum(c, 0, 5000, &sum, 8<<20) })
			if want := int64(5000) * 4999 / 2; sum != want {
				t.Errorf("%v rep %d: sum = %d, want %d", pol, rep, sum, want)
			}
		}
	}
}

func TestEmptyGroup(t *testing.T) {
	for _, pol := range testPolicies {
		p := newTestPool(t, pol)
		p.Run(func(c *Ctx) {
			g := c.Group(GroupHint{})
			g.Wait() // no children: must return immediately
		})
	}
}

func TestManyChildrenFlatGroup(t *testing.T) {
	for _, pol := range testPolicies {
		p := newTestPool(t, pol)
		var count int64
		p.Run(func(c *Ctx) {
			g := c.Group(GroupHint{Work: 64, Size: 16 << 20})
			for i := 0; i < 64; i++ {
				g.Spawn(1, func(c *Ctx) { atomic.AddInt64(&count, 1) })
			}
			g.Wait()
		})
		if count != 64 {
			t.Errorf("%v: count = %d, want 64", pol, count)
		}
	}
}

func TestZeroWorkHints(t *testing.T) {
	// All-zero hints give the first child the whole range and must not hang.
	p := newTestPool(t, ADWS)
	var count int64
	p.Run(func(c *Ctx) {
		g := c.Group(GroupHint{})
		for i := 0; i < 16; i++ {
			g.Spawn(0, func(c *Ctx) { atomic.AddInt64(&count, 1) })
		}
		g.Wait()
	})
	if count != 16 {
		t.Errorf("count = %d, want 16", count)
	}
}

func TestCtxWorkerInRange(t *testing.T) {
	p := newTestPool(t, ADWS)
	var bad atomic.Bool
	p.Run(func(c *Ctx) {
		g := c.Group(GroupHint{Work: 32})
		for i := 0; i < 32; i++ {
			g.Spawn(1, func(c *Ctx) {
				if c.Worker() < 0 || c.Worker() >= c.Pool().NumWorkers() {
					bad.Store(true)
				}
			})
		}
		g.Wait()
	})
	if bad.Load() {
		t.Error("Ctx.Worker out of range")
	}
}

func TestPolicyStrings(t *testing.T) {
	want := map[Policy]string{WS: "ws", ADWS: "adws", MLWS: "mlws", MLADWS: "mladws"}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), s)
		}
	}
	if Policy(9).String() != "Policy(9)" {
		t.Error("unknown policy string")
	}
}

func TestDefaultMachine(t *testing.T) {
	p := NewPool(Config{Policy: WS})
	defer p.Close()
	if p.NumWorkers() < 1 {
		t.Error("no workers")
	}
	if p.Policy() != WS {
		t.Error("policy not recorded")
	}
	var ran atomic.Bool
	p.Run(func(c *Ctx) { ran.Store(true) })
	if !ran.Load() {
		t.Error("root did not run on default machine")
	}
}

func TestBusyIdleProfile(t *testing.T) {
	p := newTestPool(t, ADWS)
	var sum int64
	p.Run(func(c *Ctx) { treeSum(c, 0, 200000, &sum, 0) })
	st := p.Stats()
	if st.BusyNS <= 0 {
		t.Errorf("BusyNS = %d, want positive", st.BusyNS)
	}
	if st.IdleNS < 0 {
		t.Errorf("IdleNS = %d, want non-negative", st.IdleNS)
	}
}
