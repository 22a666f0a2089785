package workload

import (
	"math"

	"github.com/parlab/adws/internal/sim"
)

// MatMul is the paper's cache-oblivious dense matrix multiplication
// (SGEMM): C = A·B over N×N single-precision matrices, recursively divided
// into four submatrices with a hand-tuned kernel at the cutoff. We model
// matrices in tile-major layout with mmTile×mmTile tiles (the paper's
// 64×64 kernel is below our chunk granularity; tiles of 256×256 = 256 KB
// keep the same recursive structure at chunk resolution).
//
// The recursion follows the standard 8-multiply scheme: each quadrant of C
// accumulates two products, executed as two sequential groups of four
// parallel sub-multiplications.
func MatMul(n int, seed uint64) Instance {
	if n < mmTile {
		n = mmTile
	}
	nt := n / mmTile
	// Round to a power-of-two tile count for clean recursion.
	p := 1
	for p*2 <= nt {
		p *= 2
	}
	nt = p
	n = nt * mmTile
	bytes := int64(3) * int64(n) * int64(n) * 4
	return Instance{
		Name:  "matmul",
		Bytes: bytes,
		FLOPs: 2 * float64(n) * float64(n) * float64(n),
		Prepare: func(mem *sim.Memory) (sim.Body, sim.Body) {
			mb := int64(n) * int64(n) * 4
			A := mem.Alloc("mm.A", mb)
			B := mem.Alloc("mm.B", mb)
			C := mem.Alloc("mm.C", mb)
			m := &mmState{A: A, B: B, C: C, nTiles: nt}
			root := m.mul(nt, 0, 0, 0, 0, 0, 0)
			init := func(b *sim.B) {
				parFor(mmTileBytes, 1, 200, A)(b)
				parFor(mmTileBytes, 1, 200, B)(b)
				parFor(mmTileBytes, 1, 200, C)(b)
			}
			return root, init
		},
	}
}

// MatMulBytes builds a MatMul instance whose total working set (three
// matrices) is close to the requested byte size.
func MatMulBytes(bytes int64, seed uint64) Instance {
	n := int(math.Sqrt(float64(bytes) / 12))
	return MatMul(n, seed)
}

const (
	mmTile      = 256
	mmTileBytes = int64(mmTile) * mmTile * 4 // 256 KB = 4 chunks
	// mmKernelCompute is the compute cost of one mmTile³ kernel call
	// (2·T³ flops at several flops per simulated nanosecond).
	mmKernelCompute = 16000
)

type mmState struct {
	A, B, C sim.Segment
	nTiles  int
}

func (m *mmState) tile(s sim.Segment, i, j int) sim.Segment {
	return s.Slice((int64(i)*int64(m.nTiles)+int64(j))*mmTileBytes, mmTileBytes)
}

// mul returns the body multiplying the n×n-tile blocks A[ai:ai+n,aj:aj+n] ·
// B[bi:bi+n,bj:bj+n] into C[ci:ci+n,cj:cj+n].
func (m *mmState) mul(n, ci, cj, ai, aj, bi, bj int) sim.Body {
	if n == 1 {
		return func(b *sim.B) {
			b.Compute(mmKernelCompute,
				sim.AccessSpec{Seg: m.tile(m.A, ai, aj), Passes: 1},
				sim.AccessSpec{Seg: m.tile(m.B, bi, bj), Passes: 1},
				sim.AccessSpec{Seg: m.tile(m.C, ci, cj), Passes: 2},
			)
		}
	}
	h := n / 2
	size := func(nn int) int64 { return 3 * int64(nn) * int64(mmTile) * int64(nn) * int64(mmTile) * 4 }
	work := func(nn int) float64 { f := float64(nn); return f * f * f }
	return func(b *sim.B) {
		// First half-products: Cqq += A·B with the k-lower halves.
		b.Fork(sim.GroupSpec{
			Work: 4 * work(h),
			Size: size(n),
			Children: []sim.ChildSpec{
				{Work: work(h), Size: size(h), Body: m.mul(h, ci, cj, ai, aj, bi, bj)},
				{Work: work(h), Size: size(h), Body: m.mul(h, ci, cj+h, ai, aj, bi, bj+h)},
				{Work: work(h), Size: size(h), Body: m.mul(h, ci+h, cj, ai+h, aj, bi, bj)},
				{Work: work(h), Size: size(h), Body: m.mul(h, ci+h, cj+h, ai+h, aj, bi, bj+h)},
			},
		})
		// Second half-products with the k-upper halves.
		b.Fork(sim.GroupSpec{
			Work: 4 * work(h),
			Size: size(n),
			Children: []sim.ChildSpec{
				{Work: work(h), Size: size(h), Body: m.mul(h, ci, cj, ai, aj+h, bi+h, bj)},
				{Work: work(h), Size: size(h), Body: m.mul(h, ci, cj+h, ai, aj+h, bi+h, bj+h)},
				{Work: work(h), Size: size(h), Body: m.mul(h, ci+h, cj, ai+h, aj+h, bi+h, bj)},
				{Work: work(h), Size: size(h), Body: m.mul(h, ci+h, cj+h, ai+h, aj+h, bi+h, bj+h)},
			},
		})
	}
}
