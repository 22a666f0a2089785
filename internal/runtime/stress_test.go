package runtime

import (
	"sync/atomic"
	"testing"

	"github.com/parlab/adws/internal/sched"
	"github.com/parlab/adws/internal/topology"
)

// TestRandomTreesStress runs randomized irregular task trees (varying
// fan-out, skewed hints, mixed sized/unsized groups, sequential groups)
// under every policy and checks exactly-once execution of every leaf.
func TestRandomTreesStress(t *testing.T) {
	for _, pol := range testPolicies {
		for seed := uint64(1); seed <= 3; seed++ {
			p := newTestPool(t, pol)
			var leaves int64
			expected := int64(0)

			// Pre-compute the tree shape deterministically so we know the
			// expected leaf count.
			type nodeSpec struct {
				fanout  int
				seqReps int
				sizes   bool
				depth   int
			}
			var plan func(depth int) int64
			var build func(c *Ctx, depth int, path uint64)
			shape := func(depth int, path uint64) nodeSpec {
				r := sched.NewRNG(seed*1000+path, depth)
				return nodeSpec{
					fanout:  1 + r.Intn(5),
					seqReps: 1 + r.Intn(2),
					sizes:   r.Intn(2) == 0,
					depth:   depth,
				}
			}
			plan = func(depth int) int64 {
				if depth == 0 {
					return 1
				}
				// Mirror build's traversal exactly: every child recurses.
				var count func(depth int, path uint64) int64
				count = func(depth int, path uint64) int64 {
					if depth == 0 {
						return 1
					}
					ns := shape(depth, path)
					var total int64
					for rep := 0; rep < ns.seqReps; rep++ {
						for k := 0; k < ns.fanout; k++ {
							total += count(depth-1, path*31+uint64(rep*7+k+1))
						}
					}
					return total
				}
				return count(depth, 1)
			}
			build = func(c *Ctx, depth int, path uint64) {
				if depth == 0 {
					atomic.AddInt64(&leaves, 1)
					return
				}
				ns := shape(depth, path)
				for rep := 0; rep < ns.seqReps; rep++ {
					h := GroupHint{Work: float64(ns.fanout)}
					if ns.sizes {
						h.Size = int64(depth) * (4 << 20)
					}
					g := c.Group(h)
					for k := 0; k < ns.fanout; k++ {
						k := k
						rep := rep
						// Imprecise hints, derived per-path so task bodies
						// stay race-free.
						w := 0.5 + 2*sched.NewRNG(seed^path, k).Float64()
						g.Spawn(w, func(c *Ctx) {
							build(c, depth-1, path*31+uint64(rep*7+k+1))
						})
					}
					g.Wait()
				}
			}

			expected = plan(4)
			p.Run(func(c *Ctx) { build(c, 4, 1) })
			if leaves != expected {
				t.Errorf("%v seed %d: %d leaves, want %d", pol, seed, leaves, expected)
			}
		}
	}
}

// TestMLLeadershipInvariants checks that after a multi-level run, the
// leadership state is consistent: every worker leads exactly one cache on
// its path, and no domain or tie is left open.
func TestMLLeadershipInvariants(t *testing.T) {
	for _, pol := range []Policy{MLWS, MLADWS} {
		p := newTestPool(t, pol)
		var sum int64
		for rep := 0; rep < 3; rep++ {
			p.Run(func(c *Ctx) { treeSum(c, 0, 30000, &sum, 64<<20) })
		}
		p.ml.Lock()
		seen := map[int]int{}
		for level := 1; level < len(p.ml.caches); level++ {
			for _, mc := range p.ml.caches[level] {
				if mc.tied != nil {
					t.Errorf("%v: %v still has a tied group", pol, mc.cache)
				}
				if mc.childDomain != nil {
					t.Errorf("%v: %v still has a child domain", pol, mc.cache)
				}
				if leader := p.ml.lead.Leader(mc.cache); leader >= 0 {
					seen[leader]++
					if p.ml.lead.Leads(leader) != mc.cache {
						t.Errorf("%v: leader of %v does not point back", pol, mc.cache)
					}
					if !mc.cache.ContainsWorker(leader) {
						t.Errorf("%v: %v led by worker %d outside it", pol, mc.cache, leader)
					}
				}
			}
		}
		p.ml.Unlock()
		for wid, n := range seen {
			if n != 1 {
				t.Errorf("%v: worker %d leads %d caches", pol, wid, n)
			}
		}
		for _, w := range p.workers {
			w.fdMu.Lock()
			for _, ent := range w.fdEnts {
				if !ent.dom.closed.Load() {
					t.Errorf("%v: worker %d still member of open flattened domain", pol, w.id)
				}
			}
			w.fdMu.Unlock()
		}
	}
}

// TestQueuesDrained verifies no tasks are stranded in any entity queue
// after runs complete.
func TestQueuesDrained(t *testing.T) {
	for _, pol := range testPolicies {
		p := newTestPool(t, pol)
		var sum int64
		p.Run(func(c *Ctx) { treeSum(c, 0, 50000, &sum, 16<<20) })
		check := func(d *domain) {
			for _, ent := range d.entities {
				if n := ent.queueLen(); n != 0 {
					t.Errorf("%v: entity %d of domain %d has %d stranded tasks", pol, ent.idx, d.id, n)
				}
			}
		}
		check(p.rootDom)
	}
}

// TestHintsVsNoHintsBothComplete exercises severely wrong hints: ADWS
// must converge via localized stealing.
func TestWrongHintsComplete(t *testing.T) {
	p := newTestPool(t, ADWS)
	var count int64
	p.Run(func(c *Ctx) {
		g := c.Group(GroupHint{Work: 1000})
		// Hints claim all work is in child 0; actually it is uniform.
		for i := 0; i < 32; i++ {
			w := 0.00001
			if i == 0 {
				w = 999.99
			}
			g.Spawn(w, func(c *Ctx) {
				var inner int64
				treeSum(c, 0, 2000, &inner, 0)
				atomic.AddInt64(&count, 1)
			})
		}
		g.Wait()
	})
	if count != 32 {
		t.Errorf("count = %d, want 32", count)
	}
}

func TestThreeLevelMachineRuntime(t *testing.T) {
	p := NewPool(Config{Machine: topology.ThreeLevel64(), Policy: MLADWS, Seed: 13})
	defer p.Close()
	var sum int64
	p.Run(func(c *Ctx) { treeSum(c, 0, 40000, &sum, 100<<20) })
	if want := int64(40000) * 39999 / 2; sum != want {
		t.Errorf("sum = %d, want %d", sum, want)
	}
}
