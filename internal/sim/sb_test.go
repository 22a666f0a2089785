package sim

import (
	"testing"

	"github.com/parlab/adws/internal/topology"
)

// sbTree builds a tree whose group/child sizes force SB anchoring.
func sbTree(seg Segment, depth int, leafWork float64) Body {
	var build func(s Segment, d int) Body
	build = func(s Segment, d int) Body {
		if d == 0 {
			return func(b *B) { b.Compute(leafWork, Pass(s, 2)) }
		}
		half := s.Bytes() / 2
		l, r := s.Slice(0, half), s.Slice(half, s.Bytes()-half)
		return func(b *B) {
			b.Fork(GroupSpec{
				Work: float64(s.Bytes()),
				Size: s.Bytes(),
				Children: []ChildSpec{
					{Work: float64(l.Bytes()), Size: l.Bytes(), Body: build(l, d-1)},
					{Work: float64(r.Bytes()), Size: r.Bytes(), Body: build(r, d-1)},
				},
			})
		}
	}
	return build(seg, depth)
}

func TestSBCommitNeverExceedsCapacity(t *testing.T) {
	m := topology.TwoLevel16()
	eng := NewEngine(Config{Machine: m, Mode: SB, Seed: 3})
	seg := eng.Memory().Alloc("d", 64<<20)
	res := eng.Run(sbTree(seg, 8, 3000))
	if res.Tasks != 511 {
		t.Fatalf("tasks = %d, want 511", res.Tasks)
	}
	// After completion every reservation must have been released.
	for level := 1; level < m.NumLevels(); level++ {
		for i, cs := range eng.sb.caches[level] {
			if cs.committed != 0 {
				t.Errorf("C[%d][%d] still has %d bytes committed", level, i, cs.committed)
			}
			if cs.runq.Len() != 0 || len(cs.waitq) != 0 {
				t.Errorf("C[%d][%d] has leftover queued tasks", level, i)
			}
		}
	}
}

func TestSBAnchoringRespectsSigma(t *testing.T) {
	// A task of 5 MB on 8 MB caches with sigma=0.5 (5 > 4) must NOT anchor
	// below the root; with sigma=0.8 (5 < 6.4) it must.
	m := topology.TwoLevel16()
	for _, tc := range []struct {
		sigma      float64
		wantAnchor bool
	}{
		{0.5, false},
		{0.8, true},
	} {
		eng := NewEngine(Config{Machine: m, Mode: SB, Seed: 1})
		eng.sbSigma, eng.sbMu = tc.sigma, 0.01
		seg := eng.Memory().Alloc("d", 5<<20)
		anchored := false
		eng.Run(func(b *B) {
			b.Fork(GroupSpec{Work: 1, Size: seg.Bytes(), Children: []ChildSpec{
				{Work: 1, Size: seg.Bytes(), Body: func(b *B) {
					b.Compute(100, Pass(seg, 1))
				}},
			}})
		})
		// Inspect where reservations went: with anchoring, some shared
		// cache saw committed bytes at some point; we detect it via the
		// engine's task bookkeeping instead: re-run and check level-1
		// commit high-water by sampling after anchor (simpler: the anchor
		// descends iff sigma allows, which we can observe through
		// RemoteAccesses-free behaviour only... use the committed trace).
		_ = anchored
		// Direct check: replay anchoring logic.
		task := &Task{sbSize: seg.Bytes(), sbCache: m.Root()}
		eng2 := NewEngine(Config{Machine: m, Mode: SB, Seed: 1})
		eng2.sbSigma, eng2.sbMu = tc.sigma, 0.01
		eng2.sbAnchor(eng2.workers[0], task)
		got := task.sbCache.Level > 0
		if got != tc.wantAnchor {
			t.Errorf("sigma=%v: anchored=%v, want %v", tc.sigma, got, tc.wantAnchor)
		}
	}
}

func TestSBWaitsWhenFull(t *testing.T) {
	// Two 6 MB tasks (sigma 0.9 -> both want the same 8 MB cache level)
	// cannot both reserve one 8 MB cache; the scheduler must still finish
	// by placing them on different caches or serializing.
	m := topology.TwoLevel16()
	eng := NewEngine(Config{Machine: m, Mode: SB, Seed: 5})
	eng.sbSigma, eng.sbMu = 0.9, 0.1
	segA := eng.Memory().Alloc("a", 6<<20)
	segB := eng.Memory().Alloc("b", 6<<20)
	res := eng.Run(func(b *B) {
		b.Fork(GroupSpec{Work: 2, Size: 12 << 20, Children: []ChildSpec{
			{Work: 1, Size: segA.Bytes(), Body: func(b *B) { b.Compute(1000, Pass(segA, 2)) }},
			{Work: 1, Size: segB.Bytes(), Body: func(b *B) { b.Compute(1000, Pass(segB, 2)) }},
		}})
	})
	if res.Tasks != 3 {
		t.Errorf("tasks = %d, want 3", res.Tasks)
	}
}

func TestNUMAFirstTouchReducesRemote(t *testing.T) {
	// Under ADWS with a parallel first-touch init, the main computation's
	// remote accesses must be far below the interleave policy's.
	m := topology.OakbridgeCX()
	run := func(policy NUMAPolicy, init bool) RunResult {
		eng := NewEngine(Config{Machine: m, Mode: SLADWS, Seed: 2, NUMA: policy})
		seg := eng.Memory().Alloc("d", 512<<20)
		body := balancedTree(seg, 10, 2000)
		if init {
			eng.Run(body) // first touch with the same deterministic mapping
		}
		flushAll(eng.Hierarchy())
		return eng.Run(body)
	}
	inter := run(Interleave, false)
	local := run(FirstTouch, true)
	if local.RemoteAccesses*4 > inter.RemoteAccesses {
		t.Errorf("first-touch remote accesses %d not well below interleave %d",
			local.RemoteAccesses, inter.RemoteAccesses)
	}
	if inter.RemoteAccesses == 0 {
		t.Error("interleave produced no remote accesses at all")
	}
}

func TestStealRangeLocalization(t *testing.T) {
	// Under ML-ADWS with a huge working set, level-1 scheduling separates
	// the sockets; flattened groups run inside one socket. ADWS steals are
	// then localized: the run completes with far fewer steals than SL-WS
	// needs, and with deterministic migrations doing the distribution.
	m := topology.OakbridgeCX()
	engA := NewEngine(Config{Machine: m, Mode: MLADWS, Seed: 9})
	segA := engA.Memory().Alloc("d", 512<<20)
	adws := engA.Run(balancedTree(segA, 10, 2000))

	engW := NewEngine(Config{Machine: m, Mode: SLWS, Seed: 9})
	segW := engW.Memory().Alloc("d", 512<<20)
	ws := engW.Run(balancedTree(segW, 10, 2000))

	if adws.Migrations == 0 {
		t.Error("ML-ADWS performed no migrations")
	}
	if adws.Steals*2 > ws.Steals {
		t.Errorf("ML-ADWS steals (%d) not well below SL-WS steals (%d)", adws.Steals, ws.Steals)
	}
}
