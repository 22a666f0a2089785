// Package kernels implements the paper's benchmark computations as real
// kernels on the adws task pool: Quicksort, kd-tree construction, RRM,
// cache-oblivious matrix multiplication, a Heat2D stencil, and an SPH
// force calculation. Each kernel annotates its task groups with the work
// and working-set-size hints of the paper's Fig. 2b.
package kernels

import (
	"sort"

	"github.com/parlab/adws"
)

// QuicksortCutoff is the recursion/partition cutoff in elements (the
// paper's 64 KB of float64s).
const QuicksortCutoff = 8192

// Quicksort sorts data in place (ascending) on the pool, parallelizing
// both the recursion and the partition through double buffering, as in the
// paper's Quicksort benchmark (§6.2). The total working set is twice the
// input array.
func Quicksort(pool *adws.Pool, data []float64) { pool.Run(QuicksortBody(data)) }

// qsort sorts a into itself using b as the double buffer.
func qsort(c *adws.Ctx, a, b []float64) {
	n := len(a)
	if n <= QuicksortCutoff {
		sort.Float64s(a)
		return
	}
	pivot := medianOf3(a[0], a[n/2], a[n-1])
	h := adws.GroupHint{Work: float64(n), Size: int64(2*n) * 8}
	nl := Partition(c, n, QuicksortCutoff, h,
		func(lo, hi int) (cnt int) {
			for _, v := range a[lo:hi] {
				if v < pivot {
					cnt++
				}
			}
			return cnt
		},
		func(lo, hi, l, r int) {
			for _, v := range a[lo:hi] {
				if v < pivot {
					b[l] = v
					l++
				} else {
					b[r] = v
					r++
				}
			}
		})
	if nl == 0 || nl == n {
		// Degenerate pivot (many equal keys): fall back to serial sort of
		// this range to guarantee progress.
		sort.Float64s(a)
		return
	}
	// The partition lives in b; sort its halves back into a.
	copy(a, b)
	g := c.Group(h)
	g.Spawn(float64(nl), func(c *adws.Ctx) { qsort(c, a[:nl], b[:nl]) })
	g.Spawn(float64(n-nl), func(c *adws.Ctx) { qsort(c, a[nl:], b[nl:]) })
	g.Wait()
}

func medianOf3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}
