package sched

import "github.com/parlab/adws/internal/topology"

// FlattenOverCaches implements cache-hierarchy flattening (paper §5,
// Fig. 15) for a task group with working-set size `size` scheduled at
// cache level `level`, given the candidate caches of that level its
// distribution range spans (Axis.FlattenSpan). It decides whether the
// group should instead be scheduled by a single-level scheduler over a
// deeper, flattened set of caches.
//
// If the size fits into the candidates' total capacity, deeper levels are
// examined: as long as the size also fits into the total capacity of all
// their descendants at the next level, the flatten level advances. The
// result is the deepest level whose aggregate still holds the working set,
// plus one (capped at the leaf level): everything below the level that
// holds the working set is flattened, because single-level ADWS already
// exploits the hierarchy well when the footprint fits in aggregate cache
// (§5).
//
// It returns the level to flatten to and the flattened caches, or
// (level, nil) when no flattening applies and the group should continue
// to be scheduled at the current level.
func FlattenOverCaches(m *topology.Machine, size int64, level int, caches []*topology.Cache) (int, []*topology.Cache) {
	if len(caches) == 0 || size > topology.TotalCapacity(caches) {
		return level, nil
	}
	lnext := level
	for lnext < m.MaxLevel() && size <= topology.TotalCapacity(caches) {
		lnext++
		var next []*topology.Cache
		for _, c := range caches {
			next = append(next, topology.Descendants(c, lnext)...)
		}
		caches = next
	}
	if lnext == level {
		return level, nil
	}
	return lnext, caches
}
