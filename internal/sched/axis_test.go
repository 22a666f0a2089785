package sched

import (
	"testing"

	"github.com/parlab/adws/internal/topology"
)

func TestAxisIndexMapping(t *testing.T) {
	cases := []struct {
		axis              Axis
		logical, physical int
	}{
		{Axis{N: 4}, 0, 0},
		{Axis{N: 4}, 3, 3},
		{Axis{N: 4, Offset: 2}, 2, 2},
		{Axis{N: 4, Offset: 2}, 3, 3},
		{Axis{N: 4, Offset: 2}, 4, 0}, // wraps past the last entity
		{Axis{N: 4, Offset: 2}, 5, 1},
		{Axis{N: 8, Offset: 7}, 14, 6},
		{Axis{N: 1, Offset: 0}, 0, 0},
	}
	for _, c := range cases {
		if got := c.axis.Physical(c.logical); got != c.physical {
			t.Errorf("%+v.Physical(%d) = %d, want %d", c.axis, c.logical, got, c.physical)
		}
		if got := c.axis.LogicalOf(c.physical); got != c.logical {
			t.Errorf("%+v.LogicalOf(%d) = %d, want %d", c.axis, c.physical, got, c.logical)
		}
	}
	// Physical accepts any logical index, including one lap past the axis
	// (the steal range's High) and negatives.
	a := Axis{N: 4, Offset: 2}
	for logical, want := range map[int]int{6: 2, 7: 3, -1: 3, -4: 0} {
		if got := a.Physical(logical); got != want {
			t.Errorf("Physical(%d) = %d, want %d", logical, got, want)
		}
	}
	if r := a.FullRange(); r != (Range{X: 2, Y: 6}) {
		t.Errorf("FullRange = %v, want [2,6)", r)
	}
}

func TestAxisFraction(t *testing.T) {
	cases := []struct {
		axis   Axis
		lo, hi float64
		want   Range
	}{
		{Axis{N: 4}, 0, 1, Range{0, 4}},
		{Axis{N: 4}, 0.25, 0.5, Range{1, 2}},
		{Axis{N: 4, Offset: 3}, 0.5, 1, Range{5, 7}},
		// lo so close to 1 that the owner would fall off the axis.
		{Axis{N: 4}, 0.9999, 1, Range{3, 4}},
	}
	for _, c := range cases {
		if got := c.axis.Fraction(c.lo, c.hi); got != c.want {
			t.Errorf("%+v.Fraction(%v, %v) = %v, want %v", c.axis, c.lo, c.hi, got, c.want)
		}
	}
}

func TestAxisRebase(t *testing.T) {
	cases := []struct {
		name  string
		axis  Axis
		r     Range
		thief int
		want  Range
	}{
		{"keeps width and in-cell offset", Axis{N: 8}, Range{2.25, 3.75}, 5, Range{5.25, 6.75}},
		{"downwards", Axis{N: 8}, Range{6.5, 7}, 1, Range{1.5, 2}},
		{"clamped at the top", Axis{N: 8}, Range{1.5, 4.5}, 7, Range{5, 8}},
		{"clamped at the top of an offset axis", Axis{N: 4, Offset: 2}, Range{2.5, 4.5}, 5, Range{4, 6}},
		{"clamped at the bottom", Axis{N: 4, Offset: 2}, Range{2, 8}, 3, Range{2, 8}},
		{"whole axis stays put", Axis{N: 4}, Range{0, 4}, 3, Range{0, 4}},
	}
	for _, c := range cases {
		if got := c.axis.Rebase(c.r, c.thief); got != c.want {
			t.Errorf("%s: Rebase(%v, %d) = %v, want %v", c.name, c.r, c.thief, got, c.want)
		}
	}
}

func TestAxisFlattenSpan(t *testing.T) {
	row := topology.ThreeLevel64().LevelCaches(2) // 8 cluster caches
	cases := []struct {
		name string
		axis Axis
		r    Range
		want []int // indices into row
	}{
		{"floor(y) excluded", Axis{N: 8}, Range{2.5, 4.2}, []int{2, 3}},
		{"integer y", Axis{N: 8}, Range{2, 4}, []int{2, 3}},
		{"within one cache", Axis{N: 8}, Range{5.1, 5.9}, []int{5}},
		{"wraps on an offset axis", Axis{N: 8, Offset: 6}, Range{6, 10}, []int{6, 7, 0, 1}},
		{"at most one lap", Axis{N: 8, Offset: 3}, Range{3, 11}, []int{3, 4, 5, 6, 7, 0, 1, 2}},
		{"one lap even for an oversized range", Axis{N: 8}, Range{0, 20}, []int{0, 1, 2, 3, 4, 5, 6, 7}},
	}
	for _, c := range cases {
		got := c.axis.FlattenSpan(c.r, row)
		if len(got) != len(c.want) {
			t.Errorf("%s: %d caches, want %d", c.name, len(got), len(c.want))
			continue
		}
		for i, idx := range c.want {
			if got[i] != row[idx] {
				t.Errorf("%s: span[%d] = %v, want %v", c.name, i, got[i], row[idx])
			}
		}
	}
}
