package sched

import (
	"math/rand"
	"strings"
	"testing"
)

func TestGroupTreeDominance(t *testing.T) {
	root := NewRootGroup(Range{X: 0, Y: 4})
	if root.IsDominant() {
		t.Error("fresh group should not be dominant")
	}
	root.CrossTaskCompleted()
	if !root.IsDominant() {
		t.Error("group with a completed cross task should be dominant")
	}
	root.Finish()
	if root.IsDominant() {
		t.Error("finished group should not be dominant")
	}
}

func TestGroupDepths(t *testing.T) {
	root := NewRootGroup(Range{X: 0, Y: 8})
	if root.Depth() != 0 {
		t.Fatalf("root depth = %d, want 0", root.Depth())
	}
	c1 := root.NewChildGroup(Range{X: 0, Y: 4})
	c2 := c1.NewChildGroup(Range{X: 0, Y: 2})
	if c1.Depth() != 1 || c2.Depth() != 2 {
		t.Errorf("depths = %d,%d, want 1,2", c1.Depth(), c2.Depth())
	}
	if c2.Parent() != c1 || c1.Parent() != root || root.Parent() != nil {
		t.Error("parent links wrong")
	}
	if c1.Range() != (Range{X: 0, Y: 4}) {
		t.Errorf("Range = %v", c1.Range())
	}
}

func TestTopmostDominant(t *testing.T) {
	// Tree mirroring Fig. 10: root [0,4), child [0, 2.x), grandchild per
	// worker.
	root := NewRootGroup(Range{X: 0, Y: 4})
	left := root.NewChildGroup(Range{X: 0, Y: 2.5})
	leaf1 := left.NewChildGroup(Range{X: 1, Y: 2.5})

	// Early stage: only leaf1 dominant (worker 1's own group, Fig. 10a).
	leaf1.CrossTaskCompleted()
	if got := TopmostDominant(leaf1, 1); got != leaf1 {
		t.Errorf("TopmostDominant = %v, want leaf1", got)
	}
	// Worker 2 is not dominated by leaf1 ([1,2.5) dominates 1 only:
	// floor(2.5)=2 is excluded).
	if got := TopmostDominant(leaf1, 2); got != nil {
		t.Errorf("worker 2 should not be dominated, got %v", got)
	}

	// Ancestor becomes dominant (Fig. 10b): worker 1's steal range widens
	// to the ancestor's.
	left.CrossTaskCompleted()
	if got := TopmostDominant(leaf1, 1); got != left {
		t.Errorf("TopmostDominant = %v, want left ancestor", got)
	}

	// Root dominant (Fig. 10c): equivalent to conventional work stealing
	// over all workers.
	root.CrossTaskCompleted()
	if got := TopmostDominant(leaf1, 1); got != root {
		t.Errorf("TopmostDominant = %v, want root", got)
	}

	// Finished groups are skipped.
	root.Finish()
	if got := TopmostDominant(leaf1, 1); got != left {
		t.Errorf("after root finish, TopmostDominant = %v, want left", got)
	}
}

func TestCurrentStealRange(t *testing.T) {
	root := NewRootGroup(Range{X: 0, Y: 4})
	g := root.NewChildGroup(Range{X: 1.25, Y: 3.75})

	// No dominant group anywhere: no stealing.
	if _, ok := CurrentStealRange(g, 2); ok {
		t.Error("expected no steal range before any cross task completes")
	}

	g.CrossTaskCompleted()
	sr, ok := CurrentStealRange(g, 2)
	if !ok {
		t.Fatal("expected a steal range")
	}
	if sr.Low != 1 || sr.High != 3 {
		t.Errorf("steal range = [%d,%d], want [1,3]", sr.Low, sr.High)
	}
	if sr.MinDepth != 1 {
		t.Errorf("MinDepth = %d, want 1", sr.MinDepth)
	}
	if lo, hi := sr.HalfOpen(); lo != 1 || hi != 4 {
		t.Errorf("HalfOpen = [%v,%v), want [1,4)", lo, hi)
	}

	// Boundary-entity queue restrictions (§3.2): no stealing from the
	// migration queues of Low or the primary queues of High.
	if sr.MigrationStealable(1) {
		t.Error("migration queues of floor(x) must not be stolen from")
	}
	if !sr.MigrationStealable(2) || !sr.MigrationStealable(3) {
		t.Error("migration queues of interior workers should be stealable")
	}
	if sr.PrimaryStealable(3) {
		t.Error("primary queues of floor(y) must not be stolen from")
	}
	if !sr.PrimaryStealable(1) || !sr.PrimaryStealable(2) {
		t.Error("primary queues of interior workers should be stealable")
	}
}

func TestStealRangeVictims(t *testing.T) {
	sr := StealRange{Low: 1, High: 4}
	// Worker 2 chooses among {1, 3, 4}.
	if n := sr.NumVictims(2); n != 3 {
		t.Fatalf("NumVictims = %d, want 3", n)
	}
	got := map[int]bool{}
	for k := 0; k < 3; k++ {
		got[sr.Victim(2, k)] = true
	}
	for _, v := range []int{1, 3, 4} {
		if !got[v] {
			t.Errorf("victim %d never produced; got %v", v, got)
		}
	}
	if got[2] {
		t.Error("worker chose itself as victim")
	}
	// A worker outside the range chooses among all of it.
	if n := sr.NumVictims(7); n != 4 {
		t.Errorf("outside worker NumVictims = %d, want 4", n)
	}
	if v := sr.Victim(7, 0); v != 1 {
		t.Errorf("outside worker first victim = %d, want 1", v)
	}
}

func TestGroupString(t *testing.T) {
	g := NewRootGroup(Range{X: 0, Y: 2})
	if !strings.Contains(g.String(), "d=0") {
		t.Errorf("String = %q", g.String())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42, 3)
	b := NewRNG(42, 3)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(42, 4)
	same := 0
	a = NewRNG(42, 3)
	for i := 0; i < 100; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different-entity RNGs coincided %d/100 times", same)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7, 0)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn(5) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Errorf("Intn(5) only produced %d distinct values", len(seen))
	}
	f := r.Float64()
	if f < 0 || f >= 1 {
		t.Errorf("Float64 = %v out of [0,1)", f)
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestPlaceGroup(t *testing.T) {
	root := NewRootGroup(Range{X: 0, Y: 8})
	parent := root.NewChildGroup(Range{X: 0, Y: 4}) // depth 1
	cross, local := Range{X: 1.5, Y: 3.5}, Range{X: 1.2, Y: 1.8}
	cases := []struct {
		name        string
		parent      *GroupNode
		depth       int
		inMigration bool
		r           Range
		fresh       bool
		// expectations
		node       bool
		nodeParent *GroupNode
		childDepth int
		localInMig bool
		local      bool
	}{
		{"cross-worker group under a parent group", parent, 1, false, cross, false, true, parent, 2, false, false},
		{"cross-worker group outside any group starts a tree", nil, 0, false, cross, false, true, nil, 0, false, false},
		{"migrated parent keeps local children in the migration family", parent, 1, true, cross, false, true, parent, 2, true, false},
		{"non-cross group inherits group, depth and family", parent, 1, true, local, false, false, nil, 1, true, true},
		{"non-cross group outside any group is local too", nil, 0, false, local, false, false, nil, 0, false, true},
		{"fresh cross-worker group starts a tree at depth 0", parent, 1, true, cross, true, true, nil, 0, false, false},
		// A fresh group's range lives on the new domain's axis, so its
		// children cannot inherit the parent task's range: never local,
		// whatever the range (a domain's full range is cross-worker).
		{"fresh group is never local", parent, 1, true, local, true, true, nil, 0, false, false},
		// floor(Y) is the entity just past the range, so an integral Y
		// makes [0.5, 1.0) cross-worker: it takes the full path.
		{"integral Y is cross-worker", parent, 1, false, Range{X: 0.5, Y: 1.0}, false, true, parent, 2, false, false},
		{"one whole cell is cross-worker", nil, 0, false, Range{X: 2, Y: 3}, false, true, nil, 0, false, false},
		{"zero-width range inside a cell is local", parent, 1, false, Range{X: 1.5, Y: 1.5}, false, false, nil, 1, false, true},
		{"zero-width range on a cell boundary is local", parent, 1, false, Range{X: 2, Y: 2}, false, false, nil, 1, false, true},
	}
	for _, c := range cases {
		pl := PlaceGroup(c.parent, c.depth, c.inMigration, c.r, c.fresh)
		if (pl.Node != nil) != c.node {
			t.Errorf("%s: node = %v", c.name, pl.Node)
			continue
		}
		wantGroup := c.parent
		if c.fresh {
			wantGroup = nil
		}
		if c.node {
			wantGroup = pl.Node
			if pl.Node.Parent() != c.nodeParent || pl.Node.Range() != c.r || pl.Node.Depth() != c.childDepth {
				t.Errorf("%s: node %v under %v, want range %v under %v", c.name, pl.Node, pl.Node.Parent(), c.r, c.nodeParent)
			}
		}
		if pl.Local() != c.local {
			t.Errorf("%s: Local = %v, want %v", c.name, pl.Local(), c.local)
		}
		if pl.ChildGroup != wantGroup || pl.ChildDepth != c.childDepth || pl.LocalInMigration != c.localInMig {
			t.Errorf("%s: children in %v at depth %d, migration=%v; want %v at %d, %v",
				c.name, pl.ChildGroup, pl.ChildDepth, pl.LocalInMigration, wantGroup, c.childDepth, c.localInMig)
		}
		// Only cross-worker children of a cross-worker group count
		// towards dominance.
		if got := pl.CrossWorkerChild(cross); got != c.node {
			t.Errorf("%s: CrossWorkerChild(cross) = %v, want %v", c.name, got, c.node)
		}
		if pl.CrossWorkerChild(local) {
			t.Errorf("%s: CrossWorkerChild(local) = true", c.name)
		}
	}
}

// The lemma the work-first path rests on (GroupPlacement.Local): inside a
// range that is not cross-worker, every slice a Splitter can hand out has
// the same owner and is again not cross-worker — so it would be placed
// Local too — and a thief's Rebase of it is owned by the thief, is not
// cross-worker and never hits the axis clamp. Endpoints sit on a 2^-20
// grid so float rounding in Rebase cannot reach a cell boundary.
func TestLocalRangeLemma(t *testing.T) {
	rnd := rand.New(rand.NewSource(14))
	const grid = 1 << 20
	for trial := 0; trial < 20000; trial++ {
		a := Axis{N: 1 + rnd.Intn(16), Offset: rnd.Intn(5)}
		cell := a.Offset + rnd.Intn(a.N)
		lo := rnd.Intn(grid)
		hi := lo + rnd.Intn(grid-lo) // hi < grid: Y stays below cell+1; hi == lo is zero-width
		r := Range{X: float64(cell) + float64(lo)/grid, Y: float64(cell) + float64(hi)/grid}
		if r.IsCrossWorker() || r.Owner() != cell {
			t.Fatalf("generator: %v is not local to cell %d", r, cell)
		}

		n := 1 + rnd.Intn(6)
		hints := make([]float64, n)
		sum := 0.0
		for i := range hints {
			if rnd.Intn(4) > 0 { // a quarter of the hints are zero
				hints[i] = float64(rnd.Intn(1000)) / 8
			}
			sum += hints[i]
		}
		// Exact, short, overflowing and unknown totals.
		total := []float64{sum, sum * 2, sum / 2, 0}[rnd.Intn(4)]
		s := NewSplitter(r, total)
		for i, h := range hints {
			sub := s.NextChild(h)
			if sub.Owner() != cell || sub.IsCrossWorker() {
				t.Fatalf("%v total %v: child %d = %v leaves cell %d", r, total, i, sub, cell)
			}
			if !PlaceGroup(nil, 0, false, sub, false).Local() {
				t.Fatalf("%v: child %d = %v not placed Local", r, i, sub)
			}
			thief := a.Offset + rnd.Intn(a.N)
			rb := a.Rebase(sub, thief)
			if rb.Owner() != thief || rb.IsCrossWorker() {
				t.Fatalf("%v on %+v: Rebase(%v, %d) = %v", r, a, sub, thief, rb)
			}
			if want := float64(thief) + (sub.X - float64(cell)); rb.X != want {
				t.Fatalf("%v on %+v: Rebase(%v, %d) clamped: X = %v, want %v", r, a, sub, thief, rb.X, want)
			}
		}
	}
}
