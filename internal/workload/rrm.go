package workload

import "github.com/parlab/adws/internal/sim"

// RRM is the Recursive Repeated Map benchmark (§6.2, after the artificial
// benchmark of the space-bounded scheduler studies): an array of doubles is
// recursively divided in the ratio 1:alpha; before dividing, a map
// function is applied to the whole current array three times, each map
// being itself a recursively parallelized flat loop with a 128 KB leaf
// cutoff. Recursion stops at the chunk granularity (the paper's 32 KB
// cutoff is below our 64 KB chunk). alpha=1 yields a perfectly balanced
// computation graph; larger alpha skews it (the Fig. 19 imbalance knob).
func RRM(bytes int64, alpha float64, seed uint64) Instance {
	if alpha <= 0 {
		alpha = 1
	}
	return Instance{
		Name:  "rrm",
		Bytes: bytes,
		Prepare: func(mem *sim.Memory) (sim.Body, sim.Body) {
			seg := mem.Alloc("rrm.data", bytes)
			sh := buildRRMShape(seg.Bytes(), alpha)
			root := rrmBody(seg, sh)
			init := parFor(128<<10, 1, rrmMapCompute, seg)
			return root, init
		},
	}
}

// rrmMapCompute is the per-chunk-pass compute cost of the map function
// (multiply-and-add per element: strongly memory-bound).
const rrmMapCompute = 800

const rrmMapRepeats = 3

// buildRRMShape builds the recursion shape; work counts bytes swept.
func buildRRMShape(bytes int64, alpha float64) *shape {
	n := &shape{bytes: bytes}
	n.work = float64(rrmMapRepeats) * float64(bytes)
	if bytes > sim.ChunkSize {
		lb, rb := splitBytes(bytes, 1/(1+alpha))
		if lb > 0 && rb > 0 {
			n.l = buildRRMShape(lb, alpha)
			n.r = buildRRMShape(rb, alpha)
			n.work += n.l.work + n.r.work
		}
	}
	return n
}

func rrmBody(seg sim.Segment, sh *shape) sim.Body {
	return func(b *sim.B) {
		// Three repeated maps over the current array: consecutive flat
		// parallel loops with iterative data locality (§2.2).
		for i := 0; i < rrmMapRepeats; i++ {
			parFor(128<<10, 1, rrmMapCompute, seg)(b)
		}
		if sh.l == nil {
			return
		}
		sh.fork(b, 1, rrmBody(seg.Slice(0, sh.l.bytes), sh.l),
			rrmBody(seg.Slice(sh.l.bytes, sh.r.bytes), sh.r))
	}
}
