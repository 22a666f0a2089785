// Package sched implements the scheduling decisions of almost deterministic
// work stealing (ADWS) once, for both substrates: distribution ranges and
// their splitting by work hints (Splitter), the entity axis of a scheduling
// domain with rebase-on-steal (Axis), the cross-worker task-group tree with
// group placement and dominant-group steal ranges (GroupNode, PlaceGroup),
// the steal plan with its victim draw and boundary-queue eligibility
// (PlanSteal), depth-indexed primary/migration queues (QueueSet), and
// multi-level scheduling (Leadership, DecideML, FlattenOverCaches,
// ActingOrder).
//
// The package is substrate-agnostic and lock-free by design: plain value
// types and pure functions. The real runtime (internal/runtime) wraps its
// own state with synchronization and the discrete-event simulator
// (internal/sim) runs in virtual time; both call these functions for every
// decision (DESIGN.md, "Two substrates, one algorithm layer"). Entity
// indices are abstract: in a single-level scheduler they are worker IDs; in
// a multi-level scheduler each ADWS instance runs over the child caches of
// one cache, and the indices are (logically unwrapped) child positions.
package sched

import (
	"fmt"
	"math"
)

// Range is a distribution range [X, Y) over scheduling entities, with real
// endpoints (paper §3.1). A boundary may fall in the middle of an entity.
type Range struct {
	X, Y float64
}

// FullRange returns the range covering p entities starting at entity
// `start` on the logically unwrapped axis, i.e. [start, start+p).
func FullRange(start, p int) Range {
	return Range{X: float64(start), Y: float64(start) + float64(p)}
}

// Owner returns the entity that owns (executes) a task with this range:
// floor(X).
func (r Range) Owner() int { return int(math.Floor(r.X)) }

// Last returns floor(Y), the entity just past the highest one a
// cross-worker range spans work onto. (Entity floor(Y) is *not* dominated
// by a group with this range.)
func (r Range) Last() int { return int(math.Floor(r.Y)) }

// Width returns Y - X, the amount of entity capacity the range spans.
func (r Range) Width() float64 { return r.Y - r.X }

// IsCrossWorker reports whether a task with this range is a cross-worker
// task: floor(X) != floor(Y).
func (r Range) IsCrossWorker() bool { return r.Owner() != r.Last() }

// Dominates reports whether entity w is dominated by a dominant group with
// this range: floor(X) <= w < floor(Y). Entity floor(Y) is not dominated.
func (r Range) Dominates(w int) bool { return r.Owner() <= w && w < r.Last() }

// Contains reports whether entity w's cell [w, w+1) intersects the range's
// assignment, i.e. w is one of the entities this range distributes work to:
// floor(X) <= w <= floor(Y) and w < Y.
func (r Range) Contains(w int) bool {
	return r.Owner() <= w && float64(w) < r.Y
}

func (r Range) String() string { return fmt.Sprintf("[%.3f,%.3f)", r.X, r.Y) }

// TaskKind classifies a child task of a cross-worker task group relative to
// the entity i that created the group (paper Fig. 6).
type TaskKind int

const (
	// KindMigrate is a task with floor(x) != i: passed to entity floor(x).
	// It may itself be cross-worker or not. (In the paper's presentation
	// floor(x) > i always holds because a task executes on the entity that
	// owns its range; a stolen task whose range was rebased onto the thief
	// can also produce floor(x) < i, which is handled the same way.)
	KindMigrate TaskKind = iota
	// KindExecute is the cross-worker task with floor(x) == i and
	// floor(y) > i: executed immediately by entity i. At most one per
	// cross-worker task group.
	KindExecute
	// KindLocal is a non-cross-worker task with floor(x) == floor(y) == i:
	// pushed to entity i's primary queue and executed later.
	KindLocal
)

func (k TaskKind) String() string {
	switch k {
	case KindMigrate:
		return "migrate"
	case KindExecute:
		return "execute"
	case KindLocal:
		return "local"
	default:
		return fmt.Sprintf("TaskKind(%d)", int(k))
	}
}

// Classify returns the kind of a child task with range r relative to the
// entity i executing the enclosing task group (paper Fig. 6).
func Classify(r Range, i int) TaskKind {
	switch {
	case r.Owner() != i:
		return KindMigrate
	case r.IsCrossWorker():
		return KindExecute
	default:
		return KindLocal
	}
}

// Splitter divides a task group's distribution range among its child tasks
// in proportion to their work hints (paper Fig. 7 lines 21–22).
//
// Children are declared left to right in the paper's figures, which assigns
// ranges from the top of the range downward: the first child receives the
// topmost slice, so tasks destined for distant entities are created (and
// migrated) first, and the final child's slice ends exactly at X and falls
// to the creating entity. This ordering is what distributes descendants "as
// soon as possible" (§3.1).
type Splitter struct {
	r         Range
	totalWork float64 // total work hint for the group (w_all)
	assigned  float64 // work hint already consumed by NextChild calls
	cursor    float64 // current top of the unassigned sub-range
}

// NewSplitter prepares to divide range r among children whose work hints
// sum to totalWork. An equal split over n children is a total of n with a
// hint of 1 each (the paper's "guess that child tasks have the same amount
// of work", §6.4). A non-positive totalWork is treated as unknown: the
// first child then receives the whole range.
func NewSplitter(r Range, totalWork float64) *Splitter {
	if totalWork < 0 || math.IsNaN(totalWork) || math.IsInf(totalWork, 0) {
		totalWork = 0
	}
	return &Splitter{r: r, totalWork: totalWork, cursor: r.Y}
}

// NextChild returns the range for the next child task, given its work hint.
// Once the hints consume the whole total, the child's range ends exactly at
// the group range's X and every later child receives an empty slice there;
// hints that fall short of the total leave the bottom of the range
// unassigned. Non-positive hints receive an empty slice at the current
// cursor (the paper's hints are relative amounts of work; zero work means
// no entities need to be reserved).
func (s *Splitter) NextChild(hint float64) Range {
	if hint < 0 || math.IsNaN(hint) || math.IsInf(hint, 0) {
		hint = 0
	}
	if s.totalWork <= 0 {
		// Unknown total: the first child takes everything that is left.
		r := Range{X: s.r.X, Y: s.cursor}
		s.cursor = s.r.X
		return r
	}
	s.assigned += hint
	frac := s.assigned / s.totalWork
	var bottom float64
	if frac >= 1 {
		bottom = s.r.X
	} else {
		bottom = s.r.Y - frac*s.r.Width()
		if bottom < s.r.X {
			bottom = s.r.X
		}
	}
	r := Range{X: bottom, Y: s.cursor}
	if r.Y < r.X {
		r.Y = r.X
	}
	s.cursor = bottom
	return r
}
