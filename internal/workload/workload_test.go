package workload

import (
	"testing"

	"github.com/parlab/adws/internal/sim"
	"github.com/parlab/adws/internal/topology"
)

// runInstance executes one repetition of an instance under the given mode.
func runInstance(t *testing.T, inst Instance, mode sim.Mode) sim.RunResult {
	t.Helper()
	eng := sim.NewEngine(sim.Config{Machine: topology.TwoLevel16(), Mode: mode, Seed: 42})
	root, _ := inst.Prepare(eng.Memory())
	return eng.Run(root)
}

func TestAllBenchmarksCompleteUnderAllSchedulers(t *testing.T) {
	const mb = 1 << 20
	for _, r := range Registry {
		inst := r.Build(8*mb, 7)
		for _, mode := range sim.Modes {
			res := runInstance(t, inst, mode)
			if res.Time <= 0 {
				t.Errorf("%s under %v: time %v", r.Name, mode, res.Time)
			}
			if res.Tasks < 2 {
				t.Errorf("%s under %v: only %d tasks (no parallelism expressed)", r.Name, mode, res.Tasks)
			}
		}
	}
}

func TestBenchmarksAreDeterministic(t *testing.T) {
	const mb = 1 << 20
	for _, r := range Registry {
		a := runInstance(t, r.Build(4*mb, 3), sim.SLADWS)
		b := runInstance(t, r.Build(4*mb, 3), sim.SLADWS)
		if a.Time != b.Time || a.Tasks != b.Tasks || a.PrivateMisses != b.PrivateMisses {
			t.Errorf("%s: two identical builds diverged: %v vs %v", r.Name, a, b)
		}
	}
}

func TestBenchmarksSpeedUp(t *testing.T) {
	// Every benchmark must show real parallel speedup under SL-ADWS on 16
	// workers at a size that fits aggregate caches.
	const mb = 1 << 20
	for _, r := range Registry {
		inst := r.Build(16*mb, 5)
		serial := sim.RunSerial(topology.TwoLevel16(), sim.CostModel{}, sim.Node0, 1,
			func(mem *sim.Memory) sim.Body { root, _ := inst.Prepare(mem); return root })
		par := runInstance(t, inst, sim.SLADWS)
		sp := par.Speedup(serial.Time)
		if sp < 2.5 {
			t.Errorf("%s: speedup %.2f on 16 workers (serial %.0f, parallel %.0f)",
				r.Name, sp, serial.Time, par.Time)
		}
	}
}

func TestInstanceBytesAreHonest(t *testing.T) {
	// The allocated working set should be within 2x of the advertised
	// nominal bytes (tile/chunk rounding allowed).
	const mb = 1 << 20
	for _, r := range Registry {
		inst := r.Build(32*mb, 1)
		mem := sim.NewMemory(1, sim.Node0)
		inst.Prepare(mem)
		got := int64(mem.NumChunks()) * sim.ChunkSize
		if got < inst.Bytes/2 || got > inst.Bytes*2 {
			t.Errorf("%s: advertised %d bytes but allocated %d", r.Name, inst.Bytes, got)
		}
	}
}

func TestInitBodiesExist(t *testing.T) {
	const mb = 1 << 20
	for _, r := range Registry {
		inst := r.Build(4*mb, 1)
		mem := sim.NewMemory(2, sim.FirstTouch)
		_, init := inst.Prepare(mem)
		if init == nil {
			t.Errorf("%s: no init body for first-touch placement", r.Name)
		}
	}
}

func TestByName(t *testing.T) {
	for _, r := range Registry {
		if _, ok := ByName(r.Name); !ok {
			t.Errorf("ByName(%q) failed", r.Name)
		}
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Error("ByName(nonesuch) succeeded")
	}
}

func TestRRMAlphaSkew(t *testing.T) {
	// With larger alpha the recursion tree is more unbalanced: the shape's
	// left subtree gets a smaller share.
	sh1 := buildRRMShape(64<<20, 1)
	sh4 := buildRRMShape(64<<20, 4)
	if sh1.l.bytes != sh1.r.bytes {
		t.Errorf("alpha=1 split %d/%d not balanced", sh1.l.bytes, sh1.r.bytes)
	}
	if sh4.l.bytes*3 > sh4.r.bytes {
		t.Errorf("alpha=4 split %d/%d not skewed enough", sh4.l.bytes, sh4.r.bytes)
	}
}

func TestRRMWorkHintsAreExact(t *testing.T) {
	sh := buildRRMShape(16<<20, 2)
	var sum func(n *shape) float64
	sum = func(n *shape) float64 {
		w := float64(rrmMapRepeats) * float64(n.bytes)
		if n.l != nil {
			w += sum(n.l) + sum(n.r)
		}
		return w
	}
	if got := sum(sh); got != sh.work {
		t.Errorf("shape work %v != recomputed %v", sh.work, got)
	}
}

func TestQSShapeBounds(t *testing.T) {
	sh := buildQSShape(32<<20, 64<<10, 9, 0, 5)
	var walk func(n *shape) int64
	walk = func(n *shape) int64 {
		if n.l == nil {
			return n.bytes
		}
		if n.l.bytes+n.r.bytes != n.bytes {
			t.Fatalf("split loses bytes: %d+%d != %d", n.l.bytes, n.r.bytes, n.bytes)
		}
		return walk(n.l) + walk(n.r)
	}
	if total := walk(sh); total != 32<<20 {
		t.Errorf("leaves sum to %d, want %d", total, 32<<20)
	}
}

func TestSPHShapeIsIrregular(t *testing.T) {
	mem := sim.NewMemory(1, sim.Node0)
	seg := mem.Alloc("p", 16<<20)
	sh := buildSPHShape(seg, 3, 1, 0)
	if len(sh.children) < 2 {
		t.Fatalf("octree root has %d children", len(sh.children))
	}
	// Hints differ from actual work (the imprecision the paper discusses).
	var hintSum, actualSum float64
	var walk func(n *sphShape)
	walk = func(n *sphShape) {
		if len(n.children) == 0 {
			hintSum += n.hint
			actualSum += n.actual
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(sh)
	if hintSum == actualSum {
		t.Error("SPH hints are exact; they should be rough")
	}
	// Conservation: children cover the parent's segment.
	var bytes int64
	for _, c := range sh.children {
		bytes += c.seg.Bytes()
	}
	if bytes != seg.Bytes() {
		t.Errorf("children cover %d bytes of %d", bytes, seg.Bytes())
	}
}

func TestMatMulGeometry(t *testing.T) {
	inst := MatMul(1024, 1)
	if inst.FLOPs != 2*1024.*1024*1024*1024*1024*1024/1024/1024/1024*1024*1024*1024 && inst.FLOPs != 2*float64(1024)*1024*1024 {
		t.Errorf("FLOPs = %v", inst.FLOPs)
	}
	if inst.Bytes != 3*1024*1024*4 {
		t.Errorf("Bytes = %d, want %d", inst.Bytes, 3*1024*1024*4)
	}
	// Non-power-of-two sizes round down to a power-of-two tile count.
	inst2 := MatMul(1500, 1)
	if inst2.Bytes != 3*1024*1024*4 {
		t.Errorf("rounded Bytes = %d, want %d", inst2.Bytes, 3*1024*1024*4)
	}
}

func TestHeat2DIterationCount(t *testing.T) {
	// More iterations, proportionally more busy time.
	m := topology.TwoLevel16()
	run := func(iters int) sim.RunResult {
		eng := sim.NewEngine(sim.Config{Machine: m, Mode: sim.SLADWS, Seed: 1})
		inst := Heat2DIters(8<<20, iters, 0)
		root, _ := inst.Prepare(eng.Memory())
		return eng.Run(root)
	}
	// The first iteration is cold; after that the per-iteration cost is
	// steady, so the 2→4 and 4→6 increments must match.
	r2 := run(2)
	r4 := run(4)
	r6 := run(6)
	d1 := r4.BusyTime - r2.BusyTime
	d2 := r6.BusyTime - r4.BusyTime
	if d1 <= 0 || d2 <= 0 || d1/d2 < 0.9 || d1/d2 > 1.1 {
		t.Errorf("iteration increments differ: 2->4 adds %v, 4->6 adds %v", d1, d2)
	}
}
