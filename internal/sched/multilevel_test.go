package sched

import (
	"testing"

	"github.com/parlab/adws/internal/topology"
)

func TestElectLeaders(t *testing.T) {
	m := topology.ThreeLevel64() // 2 sockets × 4 clusters × 8 cores
	l := ElectLeaders(m)
	for w := 0; w < m.NumWorkers(); w++ {
		// The first worker of a socket leads the socket, the first worker
		// of any other cluster leads the cluster, everyone else a leaf.
		wantLevel := 3
		switch {
		case w%32 == 0:
			wantLevel = 1
		case w%8 == 0:
			wantLevel = 2
		}
		c := l.Leads(w)
		if c == nil || c.Level != wantLevel || !c.ContainsWorker(w) || l.Leader(c) != w {
			t.Errorf("worker %d leads %v, want a level-%d cache on its path", w, c, wantLevel)
		}
	}
	// Promotion left the first child of every cache without a leader.
	for level := 1; level < m.MaxLevel(); level++ {
		for _, c := range m.LevelCaches(level) {
			if got := l.Leader(c.Children()[0]); got != -1 {
				t.Errorf("first child of %v is led by %d, want nobody", c, got)
			}
		}
	}
}

func TestLeadHandOff(t *testing.T) {
	m := topology.ThreeLevel64()
	l := ElectLeaders(m)
	socket, cluster := m.CacheAt(1, 0), m.CacheAt(2, 0)

	// Tie at the socket: worker 0 descends to its cluster.
	l.Lead(0, cluster)
	if l.Leader(socket) != -1 || l.Leader(cluster) != 0 || l.Leads(0) != cluster {
		t.Errorf("after descending: socket led by %d, cluster by %d, worker 0 leads %v",
			l.Leader(socket), l.Leader(cluster), l.Leads(0))
	}
	// Untie: the worker takes the socket back and the cluster is vacant.
	l.Lead(0, socket)
	if l.Leader(socket) != 0 || l.Leader(cluster) != -1 || l.Leads(0) != socket {
		t.Errorf("after ascending: socket led by %d, cluster by %d, worker 0 leads %v",
			l.Leader(socket), l.Leader(cluster), l.Leads(0))
	}
	// Leading the cache one already leads changes nothing.
	l.Lead(0, socket)
	if l.Leader(socket) != 0 || l.Leads(0) != socket {
		t.Error("re-leading the same cache dropped the leadership")
	}
	// A worker whose cache was taken over by another leader leads nothing,
	// so it is never offered that cache to tie to or to act for.
	l.Lead(1, socket)
	if l.Leads(0) != nil || l.Leads(1) != socket {
		t.Errorf("after takeover: worker 0 leads %v, worker 1 leads %v", l.Leads(0), l.Leads(1))
	}
}

func TestDecideML(t *testing.T) {
	two, three := topology.TwoLevel16(), topology.ThreeLevel64()
	twoRoot, threeRoot := Axis{N: 4}, Axis{N: 2}
	span := func(m *topology.Machine, a Axis, level int, r Range) []*topology.Cache {
		return a.FlattenSpan(r, m.LevelCaches(level))
	}
	cases := []struct {
		name   string
		m      *topology.Machine
		w      int
		size   int64
		span   []*topology.Cache
		tieTo  *topology.Cache
		choice MLChoice
		n, pos int // entities of the new domain, deciding worker's position
	}{
		{"no size hint", two, 0, 0, span(two, twoRoot, 1, Range{0, 4}), two.CacheAt(1, 0), MLStay, 0, 0},
		{"fits the aggregate: flatten to the leaves", two, 0, 16 << 20,
			span(two, twoRoot, 1, Range{0, 4}), two.CacheAt(1, 0), MLFlatten, 16, 0},
		{"flatten position is the worker's leaf", two, 6, 12 << 20,
			span(two, twoRoot, 1, Range{1, 3}), nil, MLFlatten, 8, 2},
		{"range inside one shared cache flattens over its workers", two, 8, 4 << 20,
			span(two, twoRoot, 1, Range{2.25, 2.75}), two.CacheAt(1, 2), MLFlatten, 4, 0},
		{"exceeds the span and the led cache: stay", two, 0, 40 << 20,
			span(two, twoRoot, 1, Range{0, 4}), two.CacheAt(1, 0), MLStay, 0, 0},
		{"WS domain (no span) ties to the led cache", two, 4, 4 << 20,
			nil, two.CacheAt(1, 1), MLTie, 4, 0},
		{"tie position is the child on the worker's path", three, 0, 4 << 20,
			nil, three.CacheAt(1, 0), MLTie, 4, 0},
		{"nested tie one level down", three, 40, 4 << 20,
			nil, three.CacheAt(2, 5), MLTie, 8, 0},
		{"led cache already has a tied group (tieTo nil): stay", two, 4, 4 << 20,
			nil, nil, MLStay, 0, 0},
		{"leaf cache cannot be tied to", two, 5, 1 << 10,
			nil, two.LeafOf(5), MLStay, 0, 0},
		// 60 MB fits socket 0 but not its four 8 MB clusters: flattening
		// stops at the cluster level, short of the leaves, so the group is
		// tied to the socket instead and descends one level.
		{"three levels: flatten stops early, tie", three, 0, 60 << 20,
			span(three, threeRoot, 1, Range{0, 1}), three.CacheAt(1, 0), MLTie, 4, 0},
		{"three levels: flatten stops early, no cache to tie to", three, 0, 60 << 20,
			span(three, threeRoot, 1, Range{0, 1}), nil, MLStay, 0, 0},
		{"three levels: fits the clusters, flatten to the leaves", three, 0, 40 << 20,
			span(three, threeRoot, 1, Range{0, 2}), three.CacheAt(1, 0), MLFlatten, 64, 0},
	}
	for _, c := range cases {
		d := DecideML(c.m, c.w, c.size, c.span, c.tieTo)
		if d.Choice != c.choice || len(d.Caches) != c.n || d.Pos != c.pos {
			t.Errorf("%s: choice %d over %d caches at pos %d, want %d over %d at %d",
				c.name, d.Choice, len(d.Caches), d.Pos, c.choice, c.n, c.pos)
			continue
		}
		switch d.Choice {
		case MLFlatten:
			if got := d.Caches[d.Pos]; got != c.m.LeafOf(c.w) {
				t.Errorf("%s: worker %d placed on %v, want its leaf", c.name, c.w, got)
			}
		case MLTie:
			if got := d.Caches[d.Pos]; got.Parent() != c.tieTo || !got.ContainsWorker(c.w) {
				t.Errorf("%s: worker %d placed on %v, want the child of %v on its path", c.name, c.w, got, c.tieTo)
			}
		}
	}

	// A worker in the middle of a tied cache starts the new axis at its own
	// child, not at child 0.
	d := DecideML(three, 20, 4<<20, nil, three.CacheAt(1, 0))
	if d.Choice != MLTie || d.Pos != 2 {
		t.Errorf("worker 20 under socket 0: choice %d pos %d, want tie at child 2", d.Choice, d.Pos)
	}
	// The tie guard in full: a worker that lost its cache to another leader
	// is offered no cache and stays.
	l := ElectLeaders(two)
	l.Lead(1, two.CacheAt(1, 0))
	if d := DecideML(two, 0, 4<<20, nil, l.Leads(0)); d.Choice != MLStay {
		t.Errorf("worker 0 tied to a cache led by worker 1 (choice %d)", d.Choice)
	}
}

func TestActingOrder(t *testing.T) {
	order, alsoLed := ActingOrder([]string{"oldest", "middle", "newest"})
	if alsoLed || len(order) != 3 || order[0] != "newest" || order[2] != "oldest" {
		t.Errorf("ActingOrder = %v, %v; want newest first, exclusively", order, alsoLed)
	}
	order, alsoLed = ActingOrder([]string(nil))
	if !alsoLed || len(order) != 0 {
		t.Errorf("ActingOrder(none) = %v, %v; want the led cache's entity alone", order, alsoLed)
	}
}
