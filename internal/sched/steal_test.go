package sched

import "testing"

func TestUniformTries(t *testing.T) {
	for n, want := range map[int]int{0: -1, 1: 0, 2: 1, 4: 3, 5: 4, 6: 4, 64: 4} {
		if got := UniformTries(n); got != want {
			t.Errorf("UniformTries(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestUniformVictim(t *testing.T) {
	rng := NewRNG(3, 0)
	for _, self := range []int{0, 2, 4} {
		seen := map[int]int{}
		for i := 0; i < 2000; i++ {
			seen[UniformVictim(rng, 5, self)]++
		}
		if seen[self] != 0 {
			t.Errorf("self %d drew itself %d times", self, seen[self])
		}
		for v := 0; v < 5; v++ {
			if v != self && seen[v] < 300 {
				t.Errorf("self %d drew victim %d only %d of 2000 times", self, v, seen[v])
			}
		}
	}
}

// dominant returns a group with range r one of whose cross-worker children
// has completed, nested `depth` groups below the root of its tree.
func dominant(r Range, depth int) *GroupNode {
	g := NewRootGroup(r)
	for i := 0; i < depth; i++ {
		g = g.NewChildGroup(r)
	}
	g.CrossTaskCompleted()
	return g
}

func TestPlanStealRefusals(t *testing.T) {
	cases := []struct {
		name   string
		anchor *GroupNode
		axis   Axis
		self   int
	}{
		{"no anchor: the entity never ran a task of a cross-worker group", nil, Axis{N: 4}, 1},
		{"single-entity domain", dominant(Range{0, 1}, 0), Axis{N: 1}, 0},
		{"group not dominant yet", NewRootGroup(Range{0, 4}), Axis{N: 4}, 1},
		{"entity floor(y) is not dominated", dominant(Range{0.5, 2.5}, 0), Axis{N: 4}, 2},
		{"entity below the range", dominant(Range{1.5, 3.5}, 0), Axis{N: 4}, 0},
	}
	for _, c := range cases {
		if _, ok := PlanSteal(c.anchor, c.axis, c.self, 0); ok {
			t.Errorf("%s: PlanSteal allowed a steal", c.name)
		}
	}
}

func TestPlanStealRangeDepthAndTries(t *testing.T) {
	cases := []struct {
		name               string
		anchor             *GroupNode
		axis               Axis
		self, minDepth     int
		low, high          int
		wantSelf           int
		wantDepth, wantTry int
	}{
		{"two victims", dominant(Range{1.25, 3.75}, 0), Axis{N: 8}, 2, 0, 1, 3, 2, 0, 2},
		{"tries capped", dominant(Range{0, 8}, 0), Axis{N: 8}, 3, 0, 0, 8, 3, 0, MaxStealTries},
		{"group depth is the floor", dominant(Range{0, 4}, 2), Axis{N: 4}, 1, 0, 0, 4, 1, 2, 4},
		{"caller's floor is deeper", dominant(Range{0, 4}, 2), Axis{N: 4}, 1, 5, 0, 4, 1, 5, 4},
		{"caller's floor is shallower", dominant(Range{0, 4}, 2), Axis{N: 4}, 1, 1, 0, 4, 1, 2, 4},
		{"offset axis: physical 1 is logical 5", dominant(Range{2, 6}, 0), Axis{N: 4, Offset: 2}, 1, 0, 2, 6, 5, 0, 4},
	}
	for _, c := range cases {
		p, ok := PlanSteal(c.anchor, c.axis, c.self, c.minDepth)
		if !ok {
			t.Errorf("%s: PlanSteal refused", c.name)
			continue
		}
		if p.Low != c.low || p.High != c.high || p.Self != c.wantSelf || p.MinDepth != c.wantDepth || p.Tries != c.wantTry {
			t.Errorf("%s: plan [%d,%d] self=%d depth=%d tries=%d, want [%d,%d] self=%d depth=%d tries=%d",
				c.name, p.Low, p.High, p.Self, p.MinDepth, p.Tries,
				c.low, c.high, c.wantSelf, c.wantDepth, c.wantTry)
		}
	}
}

// TestStealPlanDraw checks every probe of many rounds against the rules of
// §3.2: the thief never probes itself, entity Low keeps its migration
// queues and entity High its primary queues, and every other candidate is
// offered migration-then-primary.
func TestStealPlanDraw(t *testing.T) {
	cases := []struct {
		name      string
		r         Range
		axis      Axis
		self      int
		wantSeen  []int // logical victims
		collision int   // logical victim that wraps onto the thief, or -1
	}{
		{"interior thief", Range{1.5, 4.5}, Axis{N: 8}, 2, []int{1, 3, 4}, -1},
		{"thief is Low", Range{1.5, 4.5}, Axis{N: 8}, 1, []int{2, 3, 4}, -1},
		// On a full-lap range, High = Low + N is the thief's own entity one
		// lap later: the draw must be skipped, not stolen from.
		{"High wraps onto the thief", Range{2, 6}, Axis{N: 4, Offset: 2}, 2, []int{3, 4, 5, 6}, 6},
		{"High wraps onto another entity", Range{2, 6}, Axis{N: 4, Offset: 2}, 0, []int{2, 3, 5, 6}, -1},
	}
	for _, c := range cases {
		plan, ok := PlanSteal(dominant(c.r, 0), c.axis, c.self, 0)
		if !ok {
			t.Errorf("%s: PlanSteal refused", c.name)
			continue
		}
		rng := NewRNG(11, c.self)
		seen := map[int]bool{}
		for i := 0; i < 500; i++ {
			v := plan.Draw(rng)
			seen[v.Logical] = true
			if v.Physical != c.axis.Physical(v.Logical) {
				t.Fatalf("%s: victim %d has physical %d", c.name, v.Logical, v.Physical)
			}
			wantMig, wantPri := v.Logical != plan.Low, v.Logical != plan.High
			if v.Logical == c.collision {
				if v.Physical != c.self {
					t.Fatalf("%s: collision victim %d is not the thief", c.name, v.Logical)
				}
				wantMig, wantPri = false, false
			} else if v.Physical == c.self {
				t.Fatalf("%s: thief drew itself as victim %d", c.name, v.Logical)
			}
			if v.Migration != wantMig || v.Primary != wantPri {
				t.Fatalf("%s: victim %d offered migration=%v primary=%v, want %v %v",
					c.name, v.Logical, v.Migration, v.Primary, wantMig, wantPri)
			}
		}
		if len(seen) != len(c.wantSeen) {
			t.Errorf("%s: drew victims %v, want %v", c.name, seen, c.wantSeen)
		}
		for _, v := range c.wantSeen {
			if !seen[v] {
				t.Errorf("%s: never drew victim %d", c.name, v)
			}
		}
	}
}
