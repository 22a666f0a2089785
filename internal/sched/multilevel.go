package sched

import "github.com/parlab/adws/internal/topology"

// Leadership records which worker leads each cache under multi-level
// scheduling (paper §4.2): a cache's leader acts for the cache's entity in
// the domain over its parent's children. Every worker leads at most one
// cache, always one on its own path to the root. It is plain data; the
// runtime guards it with its multi-level lock.
type Leadership struct {
	leader [][]int           // [level][index] -> worker, -1 while nobody leads
	leads  []*topology.Cache // worker -> the cache it leads
}

// ElectLeaders runs the initial bottom-up election: every worker leads its
// leaf cache, then the leader of each cache's first child is promoted,
// level by level, leaving that child without a leader.
func ElectLeaders(m *topology.Machine) *Leadership {
	l := &Leadership{
		leader: make([][]int, m.NumLevels()),
		leads:  make([]*topology.Cache, m.NumWorkers()),
	}
	for level := 1; level <= m.MaxLevel(); level++ {
		l.leader[level] = make([]int, len(m.LevelCaches(level)))
		for i := range l.leader[level] {
			l.leader[level][i] = -1
		}
	}
	for w := range l.leads {
		l.Lead(w, m.LeafOf(w))
	}
	for level := m.MaxLevel() - 1; level >= 1; level-- {
		for _, c := range m.LevelCaches(level) {
			l.Lead(l.Leader(c.Children()[0]), c)
		}
	}
	return l
}

// Leader returns the worker leading cache c, or -1.
func (l *Leadership) Leader(c *topology.Cache) int { return l.leader[c.Level][c.Index] }

// Leads returns the cache worker w leads, or nil.
func (l *Leadership) Leads(w int) *topology.Cache {
	if c := l.leads[w]; c != nil && l.Leader(c) == w {
		return c
	}
	return nil
}

// Lead makes worker w the leader of cache c, leaving the cache it led
// without one. A tie descends this way to the child cache on the worker's
// path (Fig. 13 line 56), and the worker executing the continuation of a
// tied group takes the untied cache back (line 58).
func (l *Leadership) Lead(w int, c *topology.Cache) {
	if old := l.leads[w]; old != nil && old != c {
		l.leader[old.Level][old.Index] = -1
	}
	l.leader[c.Level][c.Index] = w
	l.leads[w] = c
}

// MLChoice is what a multi-level scheduler does with a new task group.
type MLChoice int

const (
	// MLStay keeps scheduling the group in its current domain.
	MLStay MLChoice = iota
	// MLTie ties the group to the cache its worker leads and schedules its
	// children over that cache's children (Fig. 13).
	MLTie
	// MLFlatten schedules the group in a flattened worker-level domain over
	// leaf caches (Fig. 15).
	MLFlatten
)

// MLDecision is the outcome of DecideML. For MLTie and MLFlatten, Caches
// are the new domain's entities in physical order (the tied cache's
// children, or the flattened leaf caches) and Pos is the deciding worker's
// entity among them, which is also the new domain's axis offset.
type MLDecision struct {
	Choice MLChoice
	Caches []*topology.Cache
	Pos    int
}

// DecideML applies Fig. 13's EXECUTETASKGROUP composed with Fig. 15's
// flattening to a task group with working-set size `size` (0: unknown,
// never tied or flattened) created by worker w.
//
// Flattening is checked first (§5: a working set that fits the aggregate
// capacity of the caches in the group's range is scheduled by a
// single-level scheduler over their descendants; "otherwise, we continue
// to schedule TG at the current cache level"). span is the group's
// Axis.FlattenSpan, nil outside cache-level ADWS domains: flattening other
// strategies has limited benefit, and WS tasks carry no range to derive
// the span from. Only flattening that bottoms out at the leaf level opens
// a flattened domain. When it stops at an intermediate level (three or
// more cache levels), the group is instead tied to tieTo when it fits,
// which descends exactly one level and lets multi-level scheduling
// continue below (documented deviation, DESIGN.md). On two-level machines
// leaf flattening subsumes tying: a group that fits one shared cache and
// whose range has narrowed to it flattens over exactly that cache's
// workers.
//
// tieTo is the cache w leads (Leadership.Leads, so a worker that lost its
// cache to another leader never ties), or nil when a group is already
// tied there: each cache holds one tied group at a time (§4.2).
func DecideML(m *topology.Machine, w int, size int64, span []*topology.Cache, tieTo *topology.Cache) MLDecision {
	if size <= 0 {
		return MLDecision{}
	}
	if len(span) > 0 {
		if level, leaves := FlattenOverCaches(m, size, span[0].Level, span); leaves != nil && level == m.MaxLevel() {
			// A deciding worker outside the flattened caches cannot happen
			// for ranges produced by ADWS; anchor at entity 0 then.
			pos := 0
			for i, c := range leaves {
				if c.FirstWorker() == w {
					pos = i
				}
			}
			return MLDecision{MLFlatten, leaves, pos}
		}
	}
	if tieTo != nil && tieTo.Level < m.MaxLevel() && size <= tieTo.Capacity {
		children := tieTo.Children()
		cw := m.CacheOfWorkerAtLevel(w, tieTo.Level+1)
		return MLDecision{MLTie, children, cw.Index - children[0].Index}
	}
	return MLDecision{}
}

// ActingOrder returns the entities a worker acts for, in priority order:
// its entities in live flattened domains, newest first (flattened lists
// them oldest first) — and only those while there are any, because a
// cache executes one flattened group at a time (§4.2's one-tied-group
// invariant carried over to flattening) and its leader must not start
// other tasks at cache level meanwhile. alsoLed tells the caller to append
// the entity of the cache the worker leads, if it has one.
func ActingOrder[E any](flattened []E) (order []E, alsoLed bool) {
	for i := len(flattened) - 1; i >= 0; i-- {
		order = append(order, flattened[i])
	}
	return order, len(flattened) == 0
}
