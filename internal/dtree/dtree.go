// Package dtree implements parallel CART decision-tree construction — the
// motivating application of the ADWS paper (§2.1) — on the adws task pool.
//
// Trees are built by recursive divide and conquer: at every node the best
// split is chosen per attribute by building class histograms over the
// node's rows (as LightGBM-style implementations do, rather than by
// sorting), the rows are partitioned with double buffering, and the two
// partitions are constructed in parallel. Task groups carry row-count work
// hints and byte-size working-set hints, exactly the annotations the paper
// adds in Fig. 2b.
package dtree

import (
	"github.com/parlab/adws"
	"github.com/parlab/adws/internal/dataset"
)

// Config parameterizes training.
type Config struct {
	// MaxDepth bounds the tree depth (the paper uses 17 for HIGGS).
	MaxDepth int
	// CutoffRows is the serial-recursion cutoff (paper: 64 KB of rows).
	// A node at or below it is grown without the pool, so it must not
	// exceed LoopCutoffRows; Train clamps it.
	CutoffRows int
	// LoopCutoffRows is the parallel-loop/partition leaf size (paper:
	// 256 KB of rows).
	LoopCutoffRows int
	// Bins is the histogram resolution per attribute.
	Bins int
	// MinLeaf stops splitting below this many rows.
	MinLeaf int
}

// DefaultConfig mirrors the paper's settings scaled to row counts
// (a HIGGS row is 28×8 = 224 bytes; 64 KB ≈ 292 rows, 256 KB ≈ 1170).
func DefaultConfig() Config {
	return Config{
		MaxDepth:       17,
		CutoffRows:     292,
		LoopCutoffRows: 1170,
		Bins:           32,
		MinLeaf:        8,
	}
}

// Node is one decision tree node.
type Node struct {
	// Leaf prediction: probability of class 1.
	Prob float64
	// Split (internal nodes): attribute and threshold; nil children mark
	// leaves.
	Attr        int
	Threshold   float64
	Left, Right *Node
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Left == nil }

// Tree is a trained decision tree.
type Tree struct {
	Root  *Node
	Nodes int
}

// Predict returns the predicted class of row r of ds.
func (t *Tree) Predict(ds *dataset.Dataset, r int32) uint8 {
	n := t.Root
	for !n.IsLeaf() {
		if ds.Values[n.Attr][r] < n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	if n.Prob >= 0.5 {
		return 1
	}
	return 0
}

// Accuracy evaluates the tree over the given rows.
func (t *Tree) Accuracy(ds *dataset.Dataset, rows []int32) float64 {
	if len(rows) == 0 {
		return 0
	}
	correct := 0
	for _, r := range rows {
		if t.Predict(ds, r) == ds.Labels[r] {
			correct++
		}
	}
	return float64(correct) / float64(len(rows))
}

// trainer carries the shared training state.
type trainer struct {
	cfg  Config
	ds   *dataset.Dataset
	pool *adws.Pool
	// rowBytes is the per-row working-set contribution for size hints.
	rowBytes int64
	// attrBounds caches each attribute's global [min,max] for histogram
	// binning.
	attrBounds [][2]float64
}

// Train builds a tree over the given training rows using the pool.
func Train(pool *adws.Pool, ds *dataset.Dataset, rows []int32, cfg Config) *Tree {
	if cfg.MaxDepth <= 0 {
		cfg = DefaultConfig()
	}
	cfg.CutoffRows = min(cfg.CutoffRows, cfg.LoopCutoffRows)
	tr := &trainer{cfg: cfg, ds: ds, pool: pool, rowBytes: int64(ds.Attrs) * 8}
	tr.attrBounds = make([][2]float64, ds.Attrs)
	for a := 0; a < ds.Attrs; a++ {
		lo, hi := tr.attrRange(a)
		tr.attrBounds[a] = [2]float64{lo, hi}
	}
	t := &Tree{}
	// Copy the row list: training ping-pongs rows between two buffers, so
	// the working slices end up scrambled; the caller's slice stays intact.
	work := append([]int32(nil), rows...)
	buf := make([]int32, len(work))
	pool.Run(func(c *adws.Ctx) {
		t.Root = tr.build(c, work, buf, 0, &t.Nodes)
	})
	return t
}

// build constructs the subtree over rows; buf is the double buffer. Task
// recursion stops at CutoffRows; the tree itself keeps growing serially
// below the cutoff until MaxDepth, purity, or MinLeaf.
func (tr *trainer) build(c *adws.Ctx, rows, buf []int32, depth int, nodes *int) *Node {
	*nodes++
	n := &Node{Prob: tr.classProb(rows)}
	if tr.done(rows, depth, n.Prob) {
		return n
	}
	if len(rows) <= tr.cfg.CutoffRows {
		c = nil
	}
	tr.split(n, rows, buf, depth, nodes, c)
	return n
}

// done reports whether the node must stay a leaf.
func (tr *trainer) done(rows []int32, depth int, prob float64) bool {
	return depth >= tr.cfg.MaxDepth || len(rows) < 2*tr.cfg.MinLeaf ||
		prob == 0 || prob == 1
}

// split grows node n over rows; with a nil Ctx everything runs serially:
// a node of at most CutoffRows <= LoopCutoffRows rows builds its
// histograms and partitions its rows inline.
func (tr *trainer) split(n *Node, rows, buf []int32, depth int, nodes *int, c *adws.Ctx) {
	attr, thr, ok := tr.bestSplit(c, rows)
	if !ok {
		return
	}
	nl := tr.partition(c, rows, buf, attr, thr)
	if nl < tr.cfg.MinLeaf || len(rows)-nl < tr.cfg.MinLeaf {
		return
	}
	n.Attr, n.Threshold = attr, thr
	// The partition lives in buf; recurse with swapped buffers.
	lRows, rRows := buf[:nl], buf[nl:len(rows)]
	lBuf, rBuf := rows[:nl], rows[nl:]

	if c == nil {
		n.Left = tr.build(nil, lRows, lBuf, depth+1, nodes)
		n.Right = tr.build(nil, rRows, rBuf, depth+1, nodes)
		return
	}
	var left, right *Node
	var lN, rN int
	g := c.Group(tr.hint(len(rows)))
	g.Spawn(float64(nl), func(c *adws.Ctx) {
		left = tr.build(c, lRows, lBuf, depth+1, &lN)
	})
	g.Spawn(float64(len(rows)-nl), func(c *adws.Ctx) {
		right = tr.build(c, rRows, rBuf, depth+1, &rN)
	})
	g.Wait()
	*nodes += lN + rN
	n.Left, n.Right = left, right
}

// hint is the work and working-set hint of a task group over n rows.
func (tr *trainer) hint(n int) adws.GroupHint {
	return adws.GroupHint{Work: float64(n), Size: int64(n) * tr.rowBytes}
}

func (tr *trainer) classProb(rows []int32) float64 {
	if len(rows) == 0 {
		return 0
	}
	ones := 0
	for _, r := range rows {
		ones += int(tr.ds.Labels[r])
	}
	return float64(ones) / float64(len(rows))
}
