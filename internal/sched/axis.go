package sched

import "github.com/parlab/adws/internal/topology"

// Axis is the entity axis of one scheduling domain: N physical entities,
// numbered 0..N-1, addressed by distribution ranges on a logically
// unwrapped axis [Offset, Offset+N) with physical = logical mod N. A
// domain opened by a worker whose entity is not the first starts its axis
// at that entity's position; the cyclic mapping keeps the paper's floor
// arithmetic intact. Both substrates embed an Axis in their domain type.
type Axis struct {
	N, Offset int
}

// Physical maps a logical entity index to a physical one.
//
//adws:hotpath
func (a Axis) Physical(logical int) int {
	p := logical % a.N
	if p < 0 {
		p += a.N
	}
	return p
}

// LogicalOf maps a physical entity index to its canonical logical index in
// [Offset, Offset+N).
//
//adws:hotpath
func (a Axis) LogicalOf(physical int) int {
	l := physical
	for l < a.Offset {
		l += a.N
	}
	for l >= a.Offset+a.N {
		l -= a.N
	}
	return l
}

// FullRange returns the distribution range covering the whole axis.
func (a Axis) FullRange() Range { return FullRange(a.Offset, a.N) }

// Fraction returns the range covering the fraction [lo, hi) of the axis
// (0 <= lo < hi <= 1), with the owner kept inside the domain even when lo
// rounds up to 1.
func (a Axis) Fraction(lo, hi float64) Range {
	off, n := float64(a.Offset), float64(a.N)
	r := Range{X: off + lo*n, Y: off + hi*n}
	if r.X > off+n-1 {
		r.X = off + n - 1
	}
	return r
}

// Rebase re-owns a stolen task's range onto the thief (logical index): the
// range keeps its width and its offset into the owner's cell, but the
// owner becomes the thief, clamped so the range stays on the axis. The
// stolen subtree then unfolds around the thief while staying deterministic
// below (DESIGN.md, steal semantics).
//
//adws:hotpath
func (a Axis) Rebase(r Range, thief int) Range {
	width := r.Width()
	x := float64(thief) + (r.X - float64(r.Owner()))
	if top := float64(a.Offset+a.N) - width; x > top {
		x = top
	}
	if x < float64(a.Offset) {
		x = float64(a.Offset)
	}
	return Range{X: x, Y: x + width}
}

// FlattenSpan returns the caches a task group with range r may flatten
// over (paper Fig. 15) in a cache-level domain whose physical entity i
// stands for row[i]: logical entities floor(x) .. max(floor(x),
// floor(y)-1), at most one lap of the axis. Cache floor(y) is excluded
// because it may receive its own leaf at this level, which takes priority
// over flattening from floor(x) (paper footnote 5).
func (a Axis) FlattenSpan(r Range, row []*topology.Cache) []*topology.Cache {
	lo, hi := r.Owner(), r.Last()-1
	if hi < lo {
		hi = lo
	}
	var span []*topology.Cache
	for l := lo; l <= hi && l-lo < a.N; l++ {
		span = append(span, row[a.Physical(l)])
	}
	return span
}
