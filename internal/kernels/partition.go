package kernels

import "github.com/parlab/adws"

// Partition is the double-buffered PARTITION of Quicksort, kd-tree
// construction and the decision tree (the paper's Fig. 1 line 7). It cuts
// [0, n) into blocks of bs elements and runs a counting task group, serial
// prefix sums over the blocks, and a scattering task group. Both groups
// carry hint h and spawn one task per block [lo, hi) with work hi−lo.
//
// count(lo, hi) returns how many elements of [lo, hi) go left.
// scatter(lo, hi, l, r) writes the left elements of [lo, hi) to the
// destination from index l on and the right ones from index r on, each in
// input order, so the partition is stable. Partition returns the size of
// the left part. With n <= bs both closures run inline and c is not used.
func Partition(c *adws.Ctx, n, bs int, h adws.GroupHint, count func(lo, hi int) int, scatter func(lo, hi, l, r int)) int {
	if n <= bs {
		nl := count(0, n)
		scatter(0, n, 0, nl)
		return nl
	}
	nb := (n + bs - 1) / bs
	block := func(b int) (lo, hi int) { return b * bs, min((b+1)*bs, n) }
	left := make([]int, nb)
	g := c.Group(h)
	for b := range left {
		lo, hi := block(b)
		g.Spawn(float64(hi-lo), func(*adws.Ctx) { left[b] = count(lo, hi) })
	}
	g.Wait()
	// Prefix sums: left[b] becomes block b's left offset. Its right
	// offset follows every left element and the right elements of the
	// full blocks before it: nl + lo − left[b].
	nl := 0
	for b, cnt := range left {
		left[b], nl = nl, nl+cnt
	}
	g = c.Group(h)
	for b, l := range left {
		lo, hi := block(b)
		g.Spawn(float64(hi-lo), func(*adws.Ctx) { scatter(lo, hi, l, nl+lo-l) })
	}
	g.Wait()
	return nl
}
