package kernels

import "github.com/parlab/adws"

// RRM constants mirror the paper's benchmark (§6.2): recursion stops below
// 32 KB of float64s and each map parallelizes down to 128 KB.
const (
	rrmRecCutoff = 32 << 10 / 8  // elements
	rrmMapCutoff = 128 << 10 / 8 // elements
	rrmRepeats   = 3
)

// RRM runs the Recursive Repeated Map benchmark over data: at each
// recursion level the map (x = x*c + x) is applied three times over the
// current array, then the array is divided in the ratio 1:alpha and both
// parts recurse in parallel.
func RRM(pool *adws.Pool, data []float64, alpha float64) { pool.Run(RRMBody(data, alpha)) }

// rrmWork returns the exact subtree work hint for an array of n elements.
func rrmWork(n int, alpha float64) float64 {
	w := float64(rrmRepeats * n)
	if n > rrmRecCutoff {
		nl := int(float64(n) / (1 + alpha))
		if nl < 1 {
			nl = 1
		}
		w += rrmWork(nl, alpha) + rrmWork(n-nl, alpha)
	}
	return w
}

func rrmRec(c *adws.Ctx, a []float64, alpha float64) {
	for r := 0; r < rrmRepeats; r++ {
		rrmMap(c, a)
	}
	if len(a) <= rrmRecCutoff {
		return
	}
	nl := int(float64(len(a)) / (1 + alpha))
	if nl < 1 {
		nl = 1
	}
	l, r := a[:nl], a[nl:]
	wl, wr := rrmWork(len(l), alpha), rrmWork(len(r), alpha)
	g := c.Group(adws.GroupHint{Work: wl + wr, Size: int64(len(a)) * 8})
	g.Spawn(wl, func(c *adws.Ctx) { rrmRec(c, l, alpha) })
	g.Spawn(wr, func(c *adws.Ctx) { rrmRec(c, r, alpha) })
	g.Wait()
}

// rrmMap applies the map function over a as a recursively parallelized
// flat loop.
func rrmMap(c *adws.Ctx, a []float64) {
	if len(a) <= rrmMapCutoff {
		for i := range a {
			a[i] = a[i]*1.0000001 + a[i]
		}
		return
	}
	mid := len(a) / 2
	g := c.Group(adws.GroupHint{Work: float64(len(a)), Size: int64(len(a)) * 8})
	g.Spawn(float64(mid), func(c *adws.Ctx) { rrmMap(c, a[:mid]) })
	g.Spawn(float64(len(a)-mid), func(c *adws.Ctx) { rrmMap(c, a[mid:]) })
	g.Wait()
}

// KDPoint is one 3-D point.
type KDPoint struct{ X, Y, Z float64 }

// KDNode is a kd-tree node over a contiguous point range.
type KDNode struct {
	// Lo and Hi delimit the node's points in the (reordered) input.
	Lo, Hi int
	// Axis and Split describe the dividing plane (leaves have Axis -1).
	Axis        int
	Split       float64
	Left, Right *KDNode
}

// kdCutoff stops tree construction (the paper's 4 KB nodes; a point is
// 24 bytes, so ~170 points).
const kdCutoff = 170

// kdParCutoff is the task-parallel cutoff (the paper's 64 KB).
const kdParCutoff = 64 << 10 / 24

// KDTree builds a kd-tree over points (reordering them in place) with
// median-of-three pivots along round-robin axes (§6.2).
func KDTree(pool *adws.Pool, points []KDPoint) (root *KDNode) {
	pool.Run(KDTreeBody(points, &root))
	return root
}

func kdAxis(p KDPoint, axis int) float64 {
	switch axis {
	case 0:
		return p.X
	case 1:
		return p.Y
	default:
		return p.Z
	}
}

func kdBuild(c *adws.Ctx, pts, buf []KDPoint, axis, lo int) *KDNode {
	n := len(pts)
	node := &KDNode{Lo: lo, Hi: lo + n, Axis: -1}
	if n <= kdCutoff {
		return node
	}
	pivot := medianOf3(kdAxis(pts[0], axis), kdAxis(pts[n/2], axis), kdAxis(pts[n-1], axis))
	// Partition by the pivot plane (inline below the parallel cutoff).
	h := adws.GroupHint{Work: float64(n), Size: int64(2*n) * 24}
	nl := Partition(c, n, kdParCutoff, h,
		func(lo, hi int) (cnt int) {
			for _, p := range pts[lo:hi] {
				if kdAxis(p, axis) < pivot {
					cnt++
				}
			}
			return cnt
		},
		func(lo, hi, l, r int) {
			for _, p := range pts[lo:hi] {
				if kdAxis(p, axis) < pivot {
					buf[l] = p
					l++
				} else {
					buf[r] = p
					r++
				}
			}
		})
	if nl == 0 || nl == n {
		return node // degenerate plane: stop here
	}
	copy(pts, buf[:n])
	node.Axis, node.Split = axis, pivot
	next := (axis + 1) % 3
	if n <= kdParCutoff {
		node.Left = kdBuild(c, pts[:nl], buf[:nl], next, lo)
		node.Right = kdBuild(c, pts[nl:], buf[nl:n], next, lo+nl)
		return node
	}
	g := c.Group(h)
	g.Spawn(float64(nl), func(c *adws.Ctx) {
		node.Left = kdBuild(c, pts[:nl], buf[:nl], next, lo)
	})
	g.Spawn(float64(n-nl), func(c *adws.Ctx) {
		node.Right = kdBuild(c, pts[nl:], buf[nl:n], next, lo+nl)
	})
	g.Wait()
	return node
}
