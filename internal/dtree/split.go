package dtree

import (
	"math"

	"github.com/parlab/adws"
	"github.com/parlab/adws/internal/kernels"
)

// hist is a per-class histogram of one attribute over one node's rows.
type hist struct {
	counts [2][]int32
	lo, hi float64
}

func newHist(bins int, lo, hi float64) *hist {
	h := &hist{lo: lo, hi: hi}
	h.counts[0] = make([]int32, bins)
	h.counts[1] = make([]int32, bins)
	return h
}

func (h *hist) bin(v float64) int {
	bins := len(h.counts[0])
	if h.hi <= h.lo {
		return 0
	}
	b := int(float64(bins) * (v - h.lo) / (h.hi - h.lo))
	if b < 0 {
		b = 0
	}
	if b >= bins {
		b = bins - 1
	}
	return b
}

func (h *hist) add(v float64, label uint8) {
	h.counts[label][h.bin(v)]++
}

func (h *hist) merge(o *hist) {
	for c := 0; c < 2; c++ {
		for i, v := range o.counts[c] {
			h.counts[c][i] += v
		}
	}
}

// bestThreshold scans the histogram for the split with the lowest weighted
// Gini impurity. ok is false when no bin boundary separates the rows.
func (h *hist) bestThreshold() (thr float64, gini float64, ok bool) {
	bins := len(h.counts[0])
	var tot0, tot1 int32
	for i := 0; i < bins; i++ {
		tot0 += h.counts[0][i]
		tot1 += h.counts[1][i]
	}
	total := float64(tot0 + tot1)
	if total == 0 {
		return 0, 0, false
	}
	best := math.Inf(1)
	var l0, l1 int32
	for i := 0; i < bins-1; i++ {
		l0 += h.counts[0][i]
		l1 += h.counts[1][i]
		nl := float64(l0 + l1)
		nr := total - nl
		if nl == 0 || nr == 0 {
			continue
		}
		gl := giniOf(float64(l1), nl)
		gr := giniOf(float64(tot1-l1), nr)
		g := (nl*gl + nr*gr) / total
		if g < best {
			best = g
			thr = h.lo + (h.hi-h.lo)*float64(i+1)/float64(bins)
			ok = true
		}
	}
	return thr, best, ok
}

// giniOf returns the Gini impurity of a set with `ones` positives out of n.
func giniOf(ones, n float64) float64 {
	p := ones / n
	return 2 * p * (1 - p)
}

// attrRange returns the attribute's global value range (histogram bounds
// are shared across nodes; synthetic data is unimodal enough for this).
func (tr *trainer) attrRange(attr int) (lo, hi float64) {
	col := tr.ds.Values[attr]
	lo, hi = col[0], col[0]
	for _, v := range col {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// bestSplit finds the best (attribute, threshold) for a node by building
// per-attribute histograms with parallel reductions — the paper's
// COMPUTEBESTSPLIT as consecutive flat parallel loops (Fig. 1 line 2–5).
// A node of at most LoopCutoffRows rows builds them inline, so c may then
// be nil.
func (tr *trainer) bestSplit(c *adws.Ctx, rows []int32) (attr int, thr float64, ok bool) {
	bestG := math.Inf(1)
	for a := 0; a < tr.ds.Attrs; a++ {
		h := tr.parallelHist(c, rows, a)
		if t, g, o := h.bestThreshold(); o && g < bestG {
			bestG, attr, thr, ok = g, a, t, true
		}
	}
	return attr, thr, ok
}

// parallelHist builds the histogram of attribute a over rows by recursive
// halving with merge-on-join, cutting off at LoopCutoffRows.
func (tr *trainer) parallelHist(c *adws.Ctx, rows []int32, a int) *hist {
	lo, hi := tr.attrBounds[a][0], tr.attrBounds[a][1]
	var rec func(c *adws.Ctx, rows []int32) *hist
	rec = func(c *adws.Ctx, rows []int32) *hist {
		if len(rows) <= tr.cfg.LoopCutoffRows {
			h := newHist(tr.cfg.Bins, lo, hi)
			col := tr.ds.Values[a]
			for _, r := range rows {
				h.add(col[r], tr.ds.Labels[r])
			}
			return h
		}
		mid := len(rows) / 2
		var hl, hr *hist
		g := c.Group(tr.hint(len(rows)))
		g.Spawn(float64(mid), func(c *adws.Ctx) { hl = rec(c, rows[:mid]) })
		g.Spawn(float64(len(rows)-mid), func(c *adws.Ctx) { hr = rec(c, rows[mid:]) })
		g.Wait()
		hl.merge(hr)
		return hl
	}
	return rec(c, rows)
}

// partition stably partitions rows by (attr < thr) into buf in blocks of
// LoopCutoffRows rows (the paper's PARTITION, Fig. 1 line 7). It returns
// the number of rows in the left partition.
func (tr *trainer) partition(c *adws.Ctx, rows, buf []int32, attr int, thr float64) int {
	col := tr.ds.Values[attr]
	return kernels.Partition(c, len(rows), tr.cfg.LoopCutoffRows, tr.hint(len(rows)),
		func(lo, hi int) (cnt int) {
			for _, r := range rows[lo:hi] {
				if col[r] < thr {
					cnt++
				}
			}
			return cnt
		},
		func(lo, hi, l, r int) {
			for _, row := range rows[lo:hi] {
				if col[row] < thr {
					buf[l] = row
					l++
				} else {
					buf[r] = row
					r++
				}
			}
		})
}
