// Package workload implements the seven benchmarks of the ADWS paper
// (§6.2) as deterministic task-graph builders for the simulator: RRM,
// Quicksort, KDTree, Decision Tree, MatMul, Heat2D, and SPH.
//
// Each builder produces the nested fork-join structure, the work and
// working-set-size hints, and the memory access pattern of the benchmark;
// the actual data values are replaced by deterministic pseudo-data (split
// fractions, pivot positions, tree shapes) drawn from a seeded PRNG, which
// preserves the scheduling-relevant structure — footprint sizes, balance,
// and reuse — without computing on real arrays.
package workload

import (
	"fmt"

	"github.com/parlab/adws/internal/sched"
	"github.com/parlab/adws/internal/sim"
)

// Instance is one benchmark instance ready to run on the simulator.
type Instance struct {
	// Name identifies the benchmark (e.g. "rrm", "quicksort").
	Name string
	// Bytes is the nominal working set size (the x-axis of Fig. 16).
	Bytes int64
	// FLOPs is the number of floating-point operations of one repetition,
	// for benchmarks reported in FLOPS (MatMul); zero elsewhere.
	FLOPs float64
	// Prepare allocates the instance's segments in mem and returns the
	// root body of one repetition plus an optional parallel initialization
	// body that touches memory with a pattern resembling the computation
	// (used for NUMA first-touch placement, §6.5). init may be nil.
	Prepare func(mem *sim.Memory) (root, init sim.Body)
}

func (i Instance) String() string { return fmt.Sprintf("%s/%dMB", i.Name, i.Bytes>>20) }

// Builder is a named constructor for a benchmark at a given working-set
// size.
type Builder func(bytes int64, seed uint64) Instance

// Registry maps benchmark names to builders, in the paper's Fig. 16 order.
var Registry = []struct {
	Name  string
	Build Builder
}{
	{"rrm", func(b int64, s uint64) Instance { return RRM(b, 1.0, s) }},
	{"quicksort", Quicksort},
	{"kdtree", KDTree},
	{"dtree", DecisionTree},
	{"matmul", MatMulBytes},
	{"heat2d", Heat2D},
	{"sph", SPH},
}

// ByName returns the builder for a benchmark name.
func ByName(name string) (Builder, bool) {
	for _, r := range Registry {
		if r.Name == name {
			return r.Build, true
		}
	}
	return nil, false
}

// nodeRNG derives a deterministic per-node PRNG from an instance seed and
// a node path identifier, so the pseudo-data of a task tree is stable
// across runs and schedulers.
func nodeRNG(seed, path uint64) *sched.RNG {
	return sched.NewRNG(seed^0xA5A5A5A5A5A5A5A5, int(path%0x7FFFFFFF))
}

// leftPath and rightPath derive child path identifiers.
func leftPath(p uint64) uint64  { return p*2 + 1 }
func rightPath(p uint64) uint64 { return p*2 + 2 }

// parFor builds a flat parallel loop over one or two same-sized segments
// swept in lockstep (the double-buffered partition reads one and writes
// the other) as a recursive binary split, the way the paper's benchmarks
// express parallel loops. Leaves of at most cutoff bytes run `passes`
// sweeps over their slice of every segment with perChunk extra work per
// chunk-pass. Work hints are the first segment's bytes; size hints sum
// over the segments.
func parFor(cutoff int64, passes int, perChunk float64, segs ...sim.Segment) sim.Body {
	l := &loop{k: len(segs), cutoff: cutoff, passes: passes, perChunk: perChunk}
	copy(l.segs[:], segs)
	return l.body(0, segs[0].Bytes())
}

// loop is one parFor; its tasks cover [off, off+n) of every segment.
type loop struct {
	segs     [2]sim.Segment
	k        int
	cutoff   int64
	passes   int
	perChunk float64
}

func (l *loop) body(off, n int64) sim.Body {
	if n <= l.cutoff || n <= sim.ChunkSize {
		return func(b *sim.B) {
			acc := make([]sim.AccessSpec, l.k)
			for i := range acc {
				acc[i] = sim.AccessSpec{Seg: l.segs[i].Slice(off, n), Passes: l.passes}
			}
			b.Compute(l.perChunk*float64(int(n/sim.ChunkSize)*l.passes*l.k), acc...)
		}
	}
	return func(b *sim.B) {
		// n is whole chunks and above one, so half is at least a chunk.
		half := n / 2 / sim.ChunkSize * sim.ChunkSize
		k := int64(l.k)
		b.Fork(sim.GroupSpec{
			Work: float64(n),
			Size: k * n,
			Children: []sim.ChildSpec{
				{Work: float64(half), Size: k * half, Body: l.body(off, half)},
				{Work: float64(n - half), Size: k * (n - half), Body: l.body(off+half, n-half)},
			},
		})
	}
}

// shape is the deterministic recursion tree of a divide-and-conquer
// benchmark: every node's bytes and exact subtree work, computed eagerly
// so that work hints are available at fork time. Leaves have nil l and r.
type shape struct {
	bytes int64
	work  float64
	l, r  *shape
}

// fork runs the bodies of sh's two subtrees as one task group; each node
// sweeps k segments of its bytes, which the size hints count.
func (sh *shape) fork(b *sim.B, k int64, l, r sim.Body) {
	b.Fork(sim.GroupSpec{
		Work: sh.l.work + sh.r.work,
		Size: k * sh.bytes,
		Children: []sim.ChildSpec{
			{Work: sh.l.work, Size: k * sh.l.bytes, Body: l},
			{Work: sh.r.work, Size: k * sh.r.bytes, Body: r},
		},
	})
}

// splitBytes splits `bytes` into two chunk-aligned parts with fraction f
// for the first part, each at least one chunk when bytes allows.
func splitBytes(bytes int64, f float64) (int64, int64) {
	a := int64(float64(bytes)*f) / sim.ChunkSize * sim.ChunkSize
	if a < sim.ChunkSize {
		a = sim.ChunkSize
	}
	if a > bytes-sim.ChunkSize {
		a = bytes - sim.ChunkSize
	}
	if a < 0 {
		a = 0
	}
	return a, bytes - a
}
