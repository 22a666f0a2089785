package workload

import "github.com/parlab/adws/internal/sim"

// medianOfThree returns the median of three uniform draws: the split
// fraction distribution of a median-of-3 pivot on random data.
func medianOfThree(r interface{ Float64() float64 }) float64 {
	a, b, c := r.Float64(), r.Float64(), r.Float64()
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	if b < 0.05 {
		b = 0.05
	}
	if b > 0.95 {
		b = 0.95
	}
	return b
}

// buildQSShape builds the recursion shape of a divide-and-conquer sort:
// per-node split fractions drawn from a median-of-three pseudo-pivot
// distribution, with exact subtree work for the hints.
func buildQSShape(bytes, cutoff int64, seed, path uint64, leafWorkFactor float64) *shape {
	n := &shape{bytes: bytes}
	if bytes <= cutoff || bytes < 2*sim.ChunkSize {
		n.work = leafWorkFactor * float64(bytes)
		return n
	}
	f := medianOfThree(nodeRNG(seed, path))
	lb, rb := splitBytes(bytes, f)
	n.l = buildQSShape(lb, cutoff, seed, leftPath(path), leafWorkFactor)
	n.r = buildQSShape(rb, cutoff, seed, rightPath(path), leafWorkFactor)
	// Partition sweeps the whole range once (read + write).
	n.work = 2*float64(bytes) + n.l.work + n.r.work
	return n
}

// Quicksort is the paper's divide-and-conquer Quicksort benchmark: the
// partition is parallelized through double buffering (total working set is
// twice the input array), the pivot is the median of the first three
// elements, and the cutoff for both recursion and partitioning is 64 KB.
func Quicksort(bytes int64, seed uint64) Instance {
	// bytes is the total working set: input + buffer.
	arr := bytes / 2
	return Instance{
		Name:  "quicksort",
		Bytes: bytes,
		Prepare: func(mem *sim.Memory) (sim.Body, sim.Body) {
			a := mem.Alloc("qs.data", arr)
			buf := mem.Alloc("qs.buf", arr)
			sh := buildQSShape(a.Bytes(), 64<<10, seed, 0, qsLeafFactor)
			root := sortBody(a, buf, sh, qsLeafFactor*1000, qsPartitionCompute)
			init := parFor(64<<10, 1, qsPartitionCompute, a)
			return root, init
		},
	}
}

const (
	// qsPartitionCompute is the per-chunk-pass compute of partitioning
	// (compare + move per element).
	qsPartitionCompute = 1500
	// qsLeafFactor scales the serial leaf sort work (n log n on a 64 KB
	// leaf, expressed per byte).
	qsLeafFactor = 5
)

// sortBody is one node of a double-buffered divide-and-conquer sort
// (Quicksort, kd-tree construction). A leaf finishes its range serially:
// two passes with leafPerChunk compute per chunk. An inner node partitions
// a into buf in a parallel loop with partPerChunk compute per chunk-pass,
// then recurses on the two parts with the buffers' roles swapped.
func sortBody(a, buf sim.Segment, sh *shape, leafPerChunk, partPerChunk float64) sim.Body {
	return func(b *sim.B) {
		if sh.l == nil {
			b.Compute(leafPerChunk*float64(a.NumChunks()), sim.AccessSpec{Seg: a, Passes: 2})
			return
		}
		parFor(64<<10, 1, partPerChunk, a, buf)(b)
		la, ra := a.Slice(0, sh.l.bytes), a.Slice(sh.l.bytes, sh.r.bytes)
		lb, rb := buf.Slice(0, sh.l.bytes), buf.Slice(sh.l.bytes, sh.r.bytes)
		sh.fork(b, 2, sortBody(lb, la, sh.l, leafPerChunk, partPerChunk),
			sortBody(rb, ra, sh.r, leafPerChunk, partPerChunk))
	}
}

// KDTree is the paper's kd-tree construction benchmark: Quicksort-like
// partitioning around a median-of-three pivot along round-robin axes, but
// more memory-bound because recursion stops early (4 KB nodes inside
// 64 KB leaf tasks) so there is less computation per byte moved.
func KDTree(bytes int64, seed uint64) Instance {
	arr := bytes / 2
	return Instance{
		Name:  "kdtree",
		Bytes: bytes,
		Prepare: func(mem *sim.Memory) (sim.Body, sim.Body) {
			a := mem.Alloc("kd.points", arr)
			buf := mem.Alloc("kd.buf", arr)
			sh := buildQSShape(a.Bytes(), 64<<10, seed^0x9E37, 0, kdLeafFactor)
			root := sortBody(a, buf, sh, kdLeafFactor*500, kdPartitionCompute)
			init := parFor(64<<10, 1, kdPartitionCompute, a)
			return root, init
		},
	}
}

const (
	kdPartitionCompute = 700
	// kdLeafFactor scales the serial leaf work: finishing sub-4KB tree
	// nodes is mostly data movement, little compute.
	kdLeafFactor = 2
)
