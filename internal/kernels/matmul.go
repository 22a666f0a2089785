package kernels

import "github.com/parlab/adws"

// MatMulCutoff is the kernel block size (the paper uses 64×64 with a
// hand-vectorized kernel; plain Go code uses the same logical cutoff).
const MatMulCutoff = 64

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	N    int
	Data []float32
	// stride includes the paper's anti-conflict row padding.
	stride int
}

// NewMatrix allocates an n×n matrix with row padding (the paper pads rows
// by 128 bytes to avoid cache conflicts at power-of-two sizes).
func NewMatrix(n int) *Matrix {
	stride := n + 32 // 32 float32s = 128 bytes
	return &Matrix{N: n, Data: make([]float32, n*stride), stride: stride}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.stride+j] }

// Set stores element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.stride+j] = v }

// MatMul computes C = A·B by the cache-oblivious recursion (§6.2): square
// matrices divided into four quadrants, eight recursive sub-products in
// two sequential groups of four parallel ones.
func MatMul(pool *adws.Pool, C, A, B *Matrix) { pool.Run(MatMulBody(C, A, B)) }

// mmRec multiplies the n×n blocks A[ai:,aj:]·B[bi:,bj:] into C[ci:,cj:].
func mmRec(c *adws.Ctx, C, A, B *Matrix, ci, cj, ai, aj, bi, bj, n int) {
	if n <= MatMulCutoff {
		mmKernel(C, A, B, ci, cj, ai, aj, bi, bj, n)
		return
	}
	h := n / 2
	type call struct{ ci, cj, ai, aj, bi, bj, n1, n2, n3 int }
	// First half-products (k-lower), then second (k-upper); each group's
	// four products write disjoint C quadrants and run in parallel.
	size := func(nn int) int64 { return 3 * int64(nn) * int64(nn) * 4 }
	work := func(nn int) float64 { f := float64(nn); return f * f * f }
	run := func(calls [4]call) {
		g := c.Group(adws.GroupHint{Work: 4 * work(h), Size: size(n)})
		for _, cl := range calls {
			cl := cl
			g.Spawn(work(cl.n1), func(c *adws.Ctx) {
				mmRecRect(c, C, A, B, cl.ci, cl.cj, cl.ai, cl.aj, cl.bi, cl.bj, cl.n1, cl.n2, cl.n3)
			})
		}
		g.Wait()
	}
	run([4]call{
		{ci, cj, ai, aj, bi, bj, h, h, h},
		{ci, cj + h, ai, aj, bi, bj + h, h, h, n - h},
		{ci + h, cj, ai + h, aj, bi, bj, n - h, h, h},
		{ci + h, cj + h, ai + h, aj, bi, bj + h, n - h, h, n - h},
	})
	run([4]call{
		{ci, cj, ai, aj + h, bi + h, bj, h, n - h, h},
		{ci, cj + h, ai, aj + h, bi + h, bj + h, h, n - h, n - h},
		{ci + h, cj, ai + h, aj + h, bi + h, bj, n - h, n - h, h},
		{ci + h, cj + h, ai + h, aj + h, bi + h, bj + h, n - h, n - h, n - h},
	})
}

// mmRecRect handles the (m × k)·(k × p) rectangular case produced by odd
// splits, recursing on the largest dimension.
func mmRecRect(c *adws.Ctx, C, A, B *Matrix, ci, cj, ai, aj, bi, bj, m, k, p int) {
	if m <= MatMulCutoff && k <= MatMulCutoff && p <= MatMulCutoff {
		mmKernelRect(C, A, B, ci, cj, ai, aj, bi, bj, m, k, p)
		return
	}
	switch {
	case m >= k && m >= p:
		h := m / 2
		g := c.Group(adws.GroupHint{
			Work: float64(m) * float64(k) * float64(p),
			Size: int64(m*k+k*p+m*p) * 4,
		})
		g.Spawn(float64(h)*float64(k)*float64(p), func(c *adws.Ctx) {
			mmRecRect(c, C, A, B, ci, cj, ai, aj, bi, bj, h, k, p)
		})
		g.Spawn(float64(m-h)*float64(k)*float64(p), func(c *adws.Ctx) {
			mmRecRect(c, C, A, B, ci+h, cj, ai+h, aj, bi, bj, m-h, k, p)
		})
		g.Wait()
	case p >= k:
		h := p / 2
		g := c.Group(adws.GroupHint{
			Work: float64(m) * float64(k) * float64(p),
			Size: int64(m*k+k*p+m*p) * 4,
		})
		g.Spawn(float64(m)*float64(k)*float64(h), func(c *adws.Ctx) {
			mmRecRect(c, C, A, B, ci, cj, ai, aj, bi, bj, m, k, h)
		})
		g.Spawn(float64(m)*float64(k)*float64(p-h), func(c *adws.Ctx) {
			mmRecRect(c, C, A, B, ci, cj+h, ai, aj, bi, bj+h, m, k, p-h)
		})
		g.Wait()
	default:
		// Split k: the two halves accumulate into the same C block and
		// must run sequentially.
		h := k / 2
		mmRecRect(c, C, A, B, ci, cj, ai, aj, bi, bj, m, h, p)
		mmRecRect(c, C, A, B, ci, cj, ai, aj+h, bi+h, bj, m, k-h, p)
	}
}

// mmKernel is the square cutoff kernel (C += A·B).
func mmKernel(C, A, B *Matrix, ci, cj, ai, aj, bi, bj, n int) {
	mmKernelRect(C, A, B, ci, cj, ai, aj, bi, bj, n, n, n)
}

// mmKernelRect is the rectangular cutoff kernel, ikj-ordered for locality.
func mmKernelRect(C, A, B *Matrix, ci, cj, ai, aj, bi, bj, m, k, p int) {
	for i := 0; i < m; i++ {
		crow := C.Data[(ci+i)*C.stride+cj : (ci+i)*C.stride+cj+p]
		for kk := 0; kk < k; kk++ {
			a := A.Data[(ai+i)*A.stride+aj+kk]
			if a == 0 {
				continue
			}
			brow := B.Data[(bi+kk)*B.stride+bj : (bi+kk)*B.stride+bj+p]
			for j := 0; j < p; j++ {
				crow[j] += a * brow[j]
			}
		}
	}
}
