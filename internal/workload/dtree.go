package workload

import "github.com/parlab/adws/internal/sim"

// DecisionTree is the paper's motivating benchmark (§2.1): CART decision
// tree construction over a HIGGS-like dataset. Every tree node runs
// consecutive flat parallel loops over its rows to build per-attribute
// histograms (the iterative-data-locality hotspot of Fig. 4), then a
// parallel partition, then recurses on the two row partitions. The
// recursion cutoff is 64 KB, parallel loops and partitioning cut off at
// 256 KB, and the maximum depth is 17.
//
// The 28 attributes are modelled as dtAttrGroups consecutive sweeps, each
// standing for a batch of attributes (the histogram of a batch is built in
// one fused pass) — this keeps the event count tractable while preserving
// the repeated-sweep reuse pattern ADWS exploits.
func DecisionTree(bytes int64, seed uint64) Instance {
	return Instance{
		Name:  "dtree",
		Bytes: bytes,
		Prepare: func(mem *sim.Memory) (sim.Body, sim.Body) {
			rows := mem.Alloc("dt.rows", bytes)
			sh := buildDTShape(rows.Bytes(), seed, 0, 0)
			root := dtBody(rows, sh)
			init := parFor(256<<10, 1, dtHistCompute, rows)
			return root, init
		},
	}
}

const (
	dtAttrGroups  = 4
	dtMaxDepth    = 17
	dtCutoff      = 64 << 10
	dtLoopCutoff  = 256 << 10
	dtHistCompute = 2000 // per chunk-pass: bin updates per element
	dtPartCompute = 1200
	dtLeafCompute = 1500
)

func buildDTShape(bytes int64, seed, path uint64, depth int) *shape {
	n := &shape{bytes: bytes}
	if bytes <= dtCutoff || bytes < 2*sim.ChunkSize || depth >= dtMaxDepth {
		n.work = float64(bytes)
		return n
	}
	// Split balance depends on the best split found; real trees are
	// moderately unbalanced.
	r := nodeRNG(seed, path)
	f := 0.25 + 0.5*r.Float64()
	lb, rb := splitBytes(bytes, f)
	n.l = buildDTShape(lb, seed, leftPath(path), depth+1)
	n.r = buildDTShape(rb, seed, rightPath(path), depth+1)
	// Histogram sweeps + partition sweep over the whole node's rows.
	n.work = float64(dtAttrGroups+2)*float64(bytes) + n.l.work + n.r.work
	return n
}

func dtBody(rows sim.Segment, sh *shape) sim.Body {
	return func(b *sim.B) {
		if sh.l == nil {
			b.Compute(dtLeafCompute*float64(rows.NumChunks()),
				sim.AccessSpec{Seg: rows, Passes: 1})
			return
		}
		// COMPUTEBESTSPLIT: consecutive histogram sweeps over the same
		// rows (iterative data locality).
		for g := 0; g < dtAttrGroups; g++ {
			parFor(dtLoopCutoff, 1, dtHistCompute, rows)(b)
		}
		// PARTITION: one more parallel sweep (read + write modelled as two
		// passes over the rows).
		parFor(dtLoopCutoff, 2, dtPartCompute, rows)(b)
		// Recurse on the two partitions.
		sh.fork(b, 1, dtBody(rows.Slice(0, sh.l.bytes), sh.l),
			dtBody(rows.Slice(sh.l.bytes, sh.r.bytes), sh.r))
	}
}
