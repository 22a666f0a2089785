package kernels

import "github.com/parlab/adws"

// HeatCutoff is the stencil block size (the paper's 64×64 cutoff).
const HeatCutoff = 64

// Grid is a square grid of float64 cells with row padding (the paper pads
// by 256 bytes against cache conflicts at power-of-two sizes).
type Grid struct {
	N      int
	Data   []float64
	stride int
}

// NewGrid allocates an n×n grid.
func NewGrid(n int) *Grid {
	stride := n + 32 // 32 float64s = 256 bytes
	return &Grid{N: n, Data: make([]float64, n*stride), stride: stride}
}

// At returns cell (i, j).
func (g *Grid) At(i, j int) float64 { return g.Data[i*g.stride+j] }

// Set stores cell (i, j).
func (g *Grid) Set(i, j int, v float64) { g.Data[i*g.stride+j] = v }

// Heat2D runs `iters` iterations of the five-point heat stencil with
// double buffering (§6.2), reading src and writing dst on even iterations
// and vice versa. It returns the grid holding the final state.
func Heat2D(pool *adws.Pool, src, dst *Grid, iters int) (out *Grid) {
	pool.Run(Heat2DBody(src, dst, iters, &out))
	return out
}

// heatSweep applies one stencil step over the ni×nj block at (i0, j0) by
// recursive four-way division into equally sized subgrids.
func heatSweep(c *adws.Ctx, src, dst *Grid, i0, j0, ni, nj int) {
	if ni <= HeatCutoff && nj <= HeatCutoff {
		heatKernel(src, dst, i0, j0, ni, nj)
		return
	}
	ai, bi := ni/2, ni-ni/2
	aj, bj := nj/2, nj-nj/2
	type quad struct{ i0, j0, ni, nj int }
	quads := []quad{
		{i0, j0, ai, aj}, {i0, j0 + aj, ai, bj},
		{i0 + ai, j0, bi, aj}, {i0 + ai, j0 + aj, bi, bj},
	}
	g := c.Group(adws.GroupHint{
		Work: float64(ni) * float64(nj),
		Size: 2 * int64(ni) * int64(nj) * 8,
	})
	for _, q := range quads {
		if q.ni == 0 || q.nj == 0 {
			continue
		}
		q := q
		g.Spawn(float64(q.ni)*float64(q.nj), func(c *adws.Ctx) {
			heatSweep(c, src, dst, q.i0, q.j0, q.ni, q.nj)
		})
	}
	g.Wait()
}

// heatKernel computes the five-point average on one block, with reflecting
// boundaries at the grid edges.
func heatKernel(src, dst *Grid, i0, j0, ni, nj int) {
	n := src.N
	for i := i0; i < i0+ni; i++ {
		up, down := i-1, i+1
		if up < 0 {
			up = 0
		}
		if down >= n {
			down = n - 1
		}
		for j := j0; j < j0+nj; j++ {
			left, right := j-1, j+1
			if left < 0 {
				left = 0
			}
			if right >= n {
				right = n - 1
			}
			v := src.At(i, j) + src.At(up, j) + src.At(down, j) +
				src.At(i, left) + src.At(i, right)
			dst.Set(i, j, v*0.2)
		}
	}
}
