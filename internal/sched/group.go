package sched

import (
	"fmt"
	"sync/atomic"
)

// GroupNode is one node in the tree of cross-worker task groups used for
// dynamic load balancing (paper Fig. 10). Non-cross-worker task groups are
// not recorded in the tree. Nodes are written by the entity executing the
// group and read concurrently by thieves; the mutable fields are atomics so
// the structure needs no locks.
type GroupNode struct {
	parent *GroupNode
	rng    Range
	// depth is the task depth of this group's child tasks: the number of
	// enclosing cross-worker task groups (the root group has depth 0 in the
	// paper; we number the root group's tasks depth 0 as well by creating
	// the root node with depth 0).
	depth int

	// completedCross counts the group's child cross-worker tasks that have
	// completed. The group is dominant once this is at least 1.
	completedCross atomic.Int32
	// finished marks the whole group as completed; finished nodes are
	// skipped as dominant-group candidates.
	finished atomic.Bool
}

// NewRootGroup creates the root of a cross-worker group tree covering the
// given range, with task depth 0.
func NewRootGroup(r Range) *GroupNode {
	return &GroupNode{rng: r, depth: 0}
}

// NewChildGroup records a new cross-worker task group with range r created
// by a task belonging to group g. The child group's tasks live one depth
// level deeper than g's tasks.
func (g *GroupNode) NewChildGroup(r Range) *GroupNode {
	return &GroupNode{parent: g, rng: r, depth: g.depth + 1}
}

// GroupPlacement is where a new task group and its children sit in the
// cross-worker group tree (paper Fig. 10) and in the queue families. It is
// built once per task group on the spawn path and has four fields on
// purpose: the compiler keeps a struct of up to four fields in registers,
// and a fifth turned PlaceGroup's return into stack copies that cost more
// than the range split a local group saves.
type GroupPlacement struct {
	// Node is the group's own tree node, or nil for a worker-local group
	// (such groups are not recorded in the tree; see Local).
	Node *GroupNode
	// ChildGroup and ChildDepth are the enclosing cross-worker group and
	// the task depth of the group's children.
	ChildGroup *GroupNode
	ChildDepth int
	// LocalInMigration reports whether children kept on the creating
	// entity go to its migration queues: descendants of a migrated task
	// stay in the migration family unless stolen (§3.2).
	LocalInMigration bool
}

// PlaceGroup places a task group with range r created by a task at depth
// `depth` of cross-worker group `parent` (nil outside any), delivered
// through a migration queue or not. fresh marks a group that opened a new
// scheduling domain (tie or flattening): it starts a new tree at depth 0
// in the primary family, because its range lives on another axis, and is
// never local (a domain's full range is cross-worker in any case).
func PlaceGroup(parent *GroupNode, depth int, inMigration bool, r Range, fresh bool) GroupPlacement {
	if fresh {
		parent, inMigration = nil, false
	} else if !r.IsCrossWorker() {
		return GroupPlacement{ChildGroup: parent, ChildDepth: depth, LocalInMigration: inMigration}
	}
	var node *GroupNode
	if parent == nil {
		node = NewRootGroup(r)
	} else {
		node = parent.NewChildGroup(r)
	}
	return GroupPlacement{Node: node, ChildGroup: node, ChildDepth: node.depth, LocalInMigration: inMigration}
}

// Local reports a worker-local group: its range lies inside one entity's
// cell and it opened no new domain. This is the one place the work-first
// rule is decided (§3.1–3.2). Every child of a local group takes the
// parent's range and entity unchanged, is KindLocal and not cross-worker,
// and needs no Splitter: any slice of a range with floor(X) == floor(Y)
// has the same owner and is again not cross-worker, also after
// Axis.Rebase, and owner and cross-workerness are all that scheduling
// reads from a range (TestLocalRangeLemma; DESIGN.md, "Where ADWS pays").
func (pl GroupPlacement) Local() bool { return pl.Node == nil }

// CrossWorkerChild reports whether a child with range r counts towards
// making the group dominant when it completes: a cross-worker task of a
// cross-worker group.
func (pl GroupPlacement) CrossWorkerChild(r Range) bool {
	return pl.Node != nil && r.IsCrossWorker()
}

// Parent returns the enclosing cross-worker task group, or nil at the root.
func (g *GroupNode) Parent() *GroupNode { return g.parent }

// Range returns the group's distribution range.
func (g *GroupNode) Range() Range { return g.rng }

// Depth returns the task depth of this group's child tasks.
func (g *GroupNode) Depth() int { return g.depth }

// CrossTaskCompleted records the completion of one of g's child
// cross-worker tasks, which may make g dominant.
func (g *GroupNode) CrossTaskCompleted() { g.completedCross.Add(1) }

// Finish marks the group as completed; it will no longer be considered a
// dominant-group candidate.
func (g *GroupNode) Finish() { g.finished.Store(true) }

// IsDominant reports whether g is a dominant task group: a cross-worker
// task group at least one of whose child cross-worker tasks has completed,
// and which has not itself finished.
func (g *GroupNode) IsDominant() bool {
	return !g.finished.Load() && g.completedCross.Load() > 0
}

func (g *GroupNode) String() string {
	return fmt.Sprintf("group{%v d=%d dom=%v}", g.rng, g.depth, g.IsDominant())
}

// TopmostDominant walks from g up to the root and returns the topmost
// (closest to the root) dominant group that dominates entity w, or nil if
// no such group exists — in which case entity w must not steal (paper
// Fig. 11 line 40). The walk costs at most the tree depth and happens only
// on steal attempts, honouring the work-first principle.
func TopmostDominant(g *GroupNode, w int) *GroupNode {
	var top *GroupNode
	for n := g; n != nil; n = n.parent {
		if n.IsDominant() && n.rng.Dominates(w) {
			top = n
		}
	}
	return top
}

// StealRange describes where an idle entity is currently allowed to steal
// from: the victims, the minimum task depth, and the two boundary entities
// with restricted queues (paper §3.2).
type StealRange struct {
	// Low and High are floor(x) and floor(y) of the topmost dominant
	// group's range; victims are chosen from [Low, High] inclusive.
	Low, High int
	// MinDepth is the depth of the topmost dominant group: only queues at
	// depth >= MinDepth may be stolen from, so tasks from enclosing groups
	// are never taken.
	MinDepth int
}

// CurrentStealRange computes entity w's steal range from its current group
// g. ok is false when w is not dominated by any group and must not steal.
func CurrentStealRange(g *GroupNode, w int) (StealRange, bool) {
	top := TopmostDominant(g, w)
	if top == nil {
		return StealRange{}, false
	}
	r := top.rng
	return StealRange{Low: r.Owner(), High: r.Last(), MinDepth: top.depth}, true
}

// HalfOpen returns the inclusive victim range [Low, High] in the half-open
// form [Low, High+1) that trace events and introspection snapshots carry.
func (s StealRange) HalfOpen() (lo, hi float64) {
	return float64(s.Low), float64(s.High) + 1
}

// NumVictims returns the number of candidate victims other than w itself.
func (s StealRange) NumVictims(w int) int {
	n := s.High - s.Low + 1
	if w >= s.Low && w <= s.High {
		n--
	}
	return n
}

// Victim returns the k-th candidate victim for entity w, skipping w itself.
// k must be in [0, NumVictims(w)).
func (s StealRange) Victim(w, k int) int {
	v := s.Low + k
	if w >= s.Low && v >= w {
		v++
	}
	return v
}

// MigrationStealable reports whether victim v's migration queues may be
// stolen from: tasks must not be stolen from the migration queues of entity
// Low, because those hold tasks migrated from outside the steal range.
func (s StealRange) MigrationStealable(v int) bool { return v != s.Low }

// PrimaryStealable reports whether victim v's primary queues may be stolen
// from: tasks must not be stolen from the primary queues of entity High,
// because those tasks are outside the range [x, y).
func (s StealRange) PrimaryStealable(v int) bool { return v != s.High }
