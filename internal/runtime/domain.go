package runtime

import (
	"sync"
	"sync/atomic"

	"github.com/parlab/adws/internal/deque"
	"github.com/parlab/adws/internal/sched"
	"github.com/parlab/adws/internal/topology"
)

// entity is one scheduling slot of a domain, with its own queues. In
// worker-level domains an entity is permanently bound to one worker; in
// cache-level domains the acting worker is the cache's current leader.
//
// Both policy families use the same queues. Primary tasks pushed by the
// entity's own fixed worker go to a Chase–Lev ring per task depth, so owner
// and thieves synchronise only when a thief is present. Everything that has
// more than one producer — migrated tasks, every push to a cache-level
// entity, and primary tasks pushed by a worker other than workerID — goes to
// the inbox, a sched.QueueSet behind mu, and nInbox lets both sides skip the
// lock while it is empty. A conventional work-stealing entity is the case
// where every task has depth 0 and nothing migrates.
//
// A foreign primary push is not an oversight: Axis.Rebase clamps a wide
// stolen range back onto the axis, so a thief near the top of the axis runs
// a task whose range is owned by a lower entity, Ctx.Group resolves the
// group's entity from that range, and the group's local children are pushed
// to another worker's primary queue. A ring has exactly one producer.
//
// Pop and steal order are those of sched.QueueSet (paper Fig. 8, Fig. 11),
// rings standing for its primary queues; a foreign primary in the inbox is
// popped after, and stolen after, the ring primaries of every depth.
type entity struct {
	dom *domain
	idx int

	// rings is the depth index of the primary rings: only the acting worker
	// replaces it, by a longer copy (growRings), and thieves read whichever
	// version they load.
	rings atomic.Pointer[[]*deque.Deque[task]]
	// deepest bounds the non-empty rings from above (every ring at a greater
	// depth is empty), so a local pop starts at the task it wants instead of
	// walking down from the deepest depth the entity ever saw. Owner-only.
	deepest int

	mu     sync.Mutex            //adws:lockrank(80) innermost runtime lock: queue ops nest under everything
	inbox  sched.QueueSet[*task] //adws:locked(mu)
	nInbox atomic.Int32          // inbox.Len(), written under mu

	workerID int // fixed acting worker, or -1 for cache-level entities

	// lastGroup anchors the dominant-group walk for steals on behalf of
	// this entity (the "current position in the tree" of §3.2): the
	// cross-worker group of the last task it started. Worker-local groups
	// have no node of their own, so it changes only when the entity moves
	// between cross-worker groups, and noteStart stores it only then.
	lastGroup atomic.Pointer[sched.GroupNode]
}

func newEntity(d *domain, idx, workerID int) *entity {
	e := &entity{dom: d, idx: idx, workerID: workerID, deepest: -1}
	e.rings.Store(new([]*deque.Deque[task]))
	return e
}

// push queues t on the entity; by is the id of the pushing worker.
func (e *entity) push(by int, t *task, migration bool) {
	if by == e.workerID && !migration {
		e.pushRing(t)
		return
	}
	e.mu.Lock()
	if migration {
		e.inbox.PushMigration(t.depth, t)
	} else {
		e.inbox.PushPrimary(t.depth, t)
	}
	e.nInbox.Add(1)
	e.mu.Unlock()
}

// pushRing is the acting worker's primary push.
//
//adws:hotpath
func (e *entity) pushRing(t *task) {
	rings := *e.rings.Load()
	if t.depth >= len(rings) {
		rings = e.growRings(rings, t.depth)
	}
	rings[t.depth].PushBottom(t)
	if t.depth > e.deepest {
		e.deepest = t.depth
	}
}

// growRings publishes a depth index that covers depth, at least doubling
// the old one, and returns it. Acting worker only.
func (e *entity) growRings(old []*deque.Deque[task], depth int) []*deque.Deque[task] {
	// Amortized O(1) per push and off the steady state: the index doubles,
	// and once it covers the deepest cross-worker group it never grows.
	//adws:allow amortized growth (docs/LINT.md hotalloc policy)
	rings := make([]*deque.Deque[task], max(depth+1, 2*len(old)))
	copy(rings, old)
	for d := len(old); d < len(rings); d++ {
		rings[d] = deque.New[task]()
	}
	e.rings.Store(&rings)
	return rings
}

// popLocal pops the entity's next local task of depth >= minDepth, in the
// order of sched.QueueSet.PopLocalFrom: primaries deepest first and LIFO
// down to the floor, then the inbox. Acting worker only.
func (e *entity) popLocal(minDepth int) *task {
	if t := e.popRing(minDepth); t != nil {
		return t
	}
	return e.fromInbox((*sched.QueueSet[*task]).PopLocalFrom, minDepth)
}

// popRing is the acting worker's pop from the rings, deepest first.
//
//adws:hotpath
func (e *entity) popRing(minDepth int) *task {
	rings := *e.rings.Load()
	for d := e.deepest; d >= minDepth; d-- {
		if t, ok := rings[d].PopBottom(); ok {
			return t
		}
		// Drained, and not visited again until the next push at this depth:
		// drop what its slots still pin.
		rings[d].Forget()
		e.deepest = d - 1
	}
	return nil
}

// fromInbox applies one of QueueSet's removals to the inbox, without the
// lock when the inbox is empty.
func (e *entity) fromInbox(take func(*sched.QueueSet[*task], int) (*task, bool), minDepth int) *task {
	if e.nInbox.Load() == 0 {
		return nil
	}
	e.mu.Lock()
	t, ok := take(&e.inbox, minDepth)
	if ok {
		e.nInbox.Add(-1)
	}
	e.mu.Unlock()
	return t
}

// queueLen reports the entity's current queue depth, for introspection
// snapshots (SchedSnapshot), without a lock.
func (e *entity) queueLen() int {
	n := int(e.nInbox.Load())
	for _, r := range *e.rings.Load() {
		n += r.Len()
	}
	return n
}

// stealMigration is a thief's first preference (sched.QueueSet.StealMigration).
func (e *entity) stealMigration(minDepth int) *task {
	return e.fromInbox((*sched.QueueSet[*task]).StealMigration, minDepth)
}

// stealPrimary is a thief's second preference: the oldest primary of the
// shallowest depth >= minDepth (sched.QueueSet.StealPrimary). Conventional
// work stealing has nothing else to steal.
func (e *entity) stealPrimary(minDepth int) *task {
	rings := *e.rings.Load()
	for d := minDepth; d < len(rings); d++ {
		if t, ok := rings[d].Steal(); ok {
			return t
		}
	}
	return e.fromInbox((*sched.QueueSet[*task]).StealPrimary, minDepth)
}

// domain is one single-level scheduling arena: a set of entities plus a
// policy (ADWS or conventional WS). The root domain exists for the whole
// pool; multi-level scheduling creates and closes domains as task groups
// are tied to caches or hierarchies are flattened. The embedded Axis maps
// between the physical entity indices and the logical axis the domain's
// distribution ranges live on.
type domain struct {
	sched.Axis
	id       int64
	adws     bool
	entities []*entity
	// caches[i] is the cache entity i stands for in a cache-level domain;
	// nil in worker-level domains.
	caches    []*topology.Cache
	level     int
	flattened bool
	closed    atomic.Bool
}

// mlCache is the per-cache multi-level scheduling state, guarded by
// Pool.ml.Mutex except where noted. Who leads the cache is in
// Pool.ml.lead.
type mlCache struct {
	cache *topology.Cache
	// tied is the group currently tied here (nil if none).
	tied *taskGroup
	// entity is this cache's slot in the active domain over its parent's
	// children (nil while no such domain exists).
	entity *entity
	// childDomain is the live domain over this cache's children.
	childDomain *domain
}
