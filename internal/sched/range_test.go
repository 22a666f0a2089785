package sched

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRangeBasics(t *testing.T) {
	r := Range{X: 2.2, Y: 4.1}
	if r.Owner() != 2 {
		t.Errorf("Owner = %d, want 2", r.Owner())
	}
	if r.Last() != 4 {
		t.Errorf("Last = %d, want 4", r.Last())
	}
	if !r.IsCrossWorker() {
		t.Error("IsCrossWorker = false, want true")
	}
	if w := r.Width(); math.Abs(w-1.9) > 1e-12 {
		t.Errorf("Width = %v, want 1.9", w)
	}

	nc := Range{X: 2.2, Y: 2.9}
	if nc.IsCrossWorker() {
		t.Error("non-cross range reported cross-worker")
	}
	if nc.Owner() != 2 || nc.Last() != 2 {
		t.Errorf("Owner/Last = %d/%d, want 2/2", nc.Owner(), nc.Last())
	}
}

func TestRangeDominates(t *testing.T) {
	r := Range{X: 1.5, Y: 3.5}
	// floor(x)=1 <= w < floor(y)=3; worker floor(y) is not dominated.
	for w, want := range map[int]bool{0: false, 1: true, 2: true, 3: false, 4: false} {
		if got := r.Dominates(w); got != want {
			t.Errorf("Dominates(%d) = %v, want %v", w, got, want)
		}
	}
}

func TestRangeContains(t *testing.T) {
	r := Range{X: 1.5, Y: 3.0}
	for w, want := range map[int]bool{0: false, 1: true, 2: true, 3: false} {
		if got := r.Contains(w); got != want {
			t.Errorf("Contains(%d) = %v, want %v", w, got, want)
		}
	}
	r2 := Range{X: 1.5, Y: 3.5}
	if !r2.Contains(3) {
		t.Error("Contains(3) = false for [1.5,3.5), want true")
	}
}

func TestFullRange(t *testing.T) {
	r := FullRange(0, 4)
	if r.X != 0 || r.Y != 4 {
		t.Errorf("FullRange(0,4) = %v", r)
	}
	r = FullRange(3, 4)
	if r.X != 3 || r.Y != 7 {
		t.Errorf("FullRange(3,4) = %v", r)
	}
}

func TestClassify(t *testing.T) {
	// Creating entity is 2 (owner of the group range [2.2, 4.1)).
	cases := []struct {
		r    Range
		want TaskKind
	}{
		{Range{X: 3.1, Y: 4.1}, KindMigrate}, // floor(x)=3 > 2
		{Range{X: 2.9, Y: 3.1}, KindExecute}, // floor(x)=2, cross
		{Range{X: 2.2, Y: 2.9}, KindLocal},   // floor(x)=floor(y)=2
	}
	for _, c := range cases {
		if got := Classify(c.r, 2); got != c.want {
			t.Errorf("Classify(%v, 2) = %v, want %v", c.r, got, c.want)
		}
	}
}

func TestTaskKindString(t *testing.T) {
	if KindMigrate.String() != "migrate" || KindExecute.String() != "execute" || KindLocal.String() != "local" {
		t.Error("TaskKind strings wrong")
	}
	if TaskKind(42).String() != "TaskKind(42)" {
		t.Error("unknown TaskKind string wrong")
	}
}

// splitAll divides r among children with the given hints, in order.
func splitAll(r Range, total float64, hints []float64) []Range {
	s := NewSplitter(r, total)
	rs := make([]Range, len(hints))
	for i, h := range hints {
		rs[i] = s.NextChild(h)
	}
	return rs
}

func TestSplitterTopDown(t *testing.T) {
	r := Range{X: 0, Y: 4}
	// First-declared child takes the topmost slice (paper Fig. 6: migrated
	// tasks are created first).
	rs := splitAll(r, 4, []float64{1, 1, 2})
	want := []Range{{3, 4}, {2, 3}, {0, 2}}
	for i := range rs {
		if math.Abs(rs[i].X-want[i].X) > 1e-12 || math.Abs(rs[i].Y-want[i].Y) > 1e-12 {
			t.Errorf("child %d = %v, want %v", i, rs[i], want[i])
		}
	}
	// Last child ends exactly at X.
	if rs[2].X != r.X {
		t.Errorf("last child X = %v, want exactly %v", rs[2].X, r.X)
	}
	// NaN/Inf hints are ignored rather than poisoning the split.
	rs = splitAll(Range{X: 0, Y: 3}, 3, []float64{math.NaN(), math.Inf(1), 3})
	if rs[2].X != 0 || rs[2].Y != 3 {
		t.Errorf("NaN/Inf hints: last child = %v, want [0,3)", rs[2])
	}
}

func TestSplitterOverflowingHints(t *testing.T) {
	// Hints summing to more than totalWork must still fit in the range:
	// the child that exhausts the total ends at X and the rest are empty.
	r := Range{X: 0, Y: 2}
	rs := splitAll(r, 1, []float64{3, 3})
	if rs[0] != r || rs[1] != (Range{X: 0, Y: 0}) {
		t.Errorf("overflow split = %v", rs)
	}
}

// An equal split over n children is a total of n with a hint of 1 each.
func TestSplitterEqual(t *testing.T) {
	rs := splitAll(Range{X: 1.5, Y: 3.5}, 4, []float64{1, 1, 1, 1})
	if rs[3].X != 1.5 {
		t.Errorf("last child X = %v, want 1.5", rs[3].X)
	}
	if rs[0].Y != 3.5 {
		t.Errorf("first child Y = %v, want 3.5", rs[0].Y)
	}
	for i := 0; i < 3; i++ {
		if rs[i].X != rs[i+1].Y {
			t.Errorf("gap between child %d and %d: %v vs %v", i, i+1, rs[i].X, rs[i+1].Y)
		}
	}
	for i, sub := range rs {
		if math.Abs(sub.Width()-0.5) > 1e-12 {
			t.Errorf("child %d width = %v, want 0.5", i, sub.Width())
		}
	}
}

func TestSplitterIncremental(t *testing.T) {
	s := NewSplitter(Range{X: 0.5, Y: 4.5}, 8)
	r1 := s.NextChild(2) // top quarter... 2/8 of width 4 = 1
	if r1.Y != 4.5 || math.Abs(r1.X-3.5) > 1e-12 {
		t.Errorf("r1 = %v, want [3.5,4.5)", r1)
	}
	r2 := s.NextChild(4)
	if math.Abs(r2.X-1.5) > 1e-12 || math.Abs(r2.Y-3.5) > 1e-12 {
		t.Errorf("r2 = %v, want [1.5,3.5)", r2)
	}
	r3 := s.NextChild(2)
	if r3.X != 0.5 {
		t.Errorf("r3 = %v, want ending exactly at 0.5", r3)
	}
}

func TestSplitterDegenerate(t *testing.T) {
	// Unknown total work: the single NextChild consumes everything.
	s := NewSplitter(Range{X: 0, Y: 2}, 0)
	r := s.NextChild(5)
	if r.X != 0 || r.Y != 2 {
		t.Errorf("unknown-total NextChild = %v, want [0,2)", r)
	}
	// Negative/NaN hints are sanitized.
	s = NewSplitter(Range{X: 0, Y: 2}, math.NaN())
	r = s.NextChild(math.NaN())
	if r.Width() != 2 {
		t.Errorf("NaN everywhere: got %v", r)
	}
}

// Property: a Splitter fed hints that sum to its total always partitions the range exactly: children are
// contiguous top-down, the first starts at Y, the last ends at X, and no
// child escapes the range.
func TestSplitPartitionProperty(t *testing.T) {
	f := func(x uint16, width uint16, h1, h2, h3, h4 uint8) bool {
		r := Range{X: float64(x) / 8, Y: float64(x)/8 + float64(width%256)/8 + 0.125}
		hints := []float64{float64(h1), float64(h2), float64(h3), float64(h4)}
		total := hints[0] + hints[1] + hints[2] + hints[3]
		rs := splitAll(r, total, hints)
		if rs[0].Y != r.Y || rs[3].X != r.X {
			return false
		}
		for i := 0; i < 3; i++ {
			if rs[i].X != rs[i+1].Y {
				return false
			}
		}
		for _, sub := range rs {
			if sub.Y < sub.X || sub.X < r.X || sub.Y > r.Y {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: at most one child of any split is of kind Execute for the
// owning entity (paper §3.1: "it is guaranteed to be the only one for each
// cross-worker task group").
func TestAtMostOneExecuteProperty(t *testing.T) {
	f := func(x uint16, width uint16, h1, h2, h3, h4, h5 uint8) bool {
		r := Range{X: float64(x) / 16, Y: float64(x)/16 + float64(width%512)/16 + 0.0625}
		owner := r.Owner()
		hints := []float64{float64(h1), float64(h2), float64(h3), float64(h4), float64(h5)}
		total := 0.0
		for _, h := range hints {
			total += h
		}
		rs := splitAll(r, total, hints)
		executes := 0
		for _, sub := range rs {
			if sub.Width() == 0 {
				continue
			}
			switch Classify(sub, owner) {
			case KindExecute:
				executes++
			case KindMigrate:
				if sub.Owner() <= owner {
					return false
				}
			case KindLocal:
				if sub.Owner() != owner {
					return false
				}
			}
		}
		return executes <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRangeString(t *testing.T) {
	if s := (Range{X: 1, Y: 2.5}).String(); s != "[1.000,2.500)" {
		t.Errorf("String = %q", s)
	}
}
