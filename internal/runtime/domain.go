package runtime

import (
	"sync"
	"sync/atomic"

	"github.com/parlab/adws/internal/deque"
	"github.com/parlab/adws/internal/sched"
	"github.com/parlab/adws/internal/topology"
)

// entity is one scheduling slot of a domain, with its own queues: the
// depth-indexed QueueSet behind mu in ADWS domains, the lock-free deque in
// conventional work-stealing ones. In worker-level domains an entity is
// permanently bound to one worker; in cache-level domains the acting
// worker is the cache's current leader.
type entity struct {
	dom *domain
	idx int

	mu sync.Mutex            //adws:lockrank(80) innermost runtime lock: queue ops nest under everything
	qs sched.QueueSet[*task] //adws:locked(mu)
	// ws is the lock-free fast path used instead of qs in conventional
	// work-stealing domains (single owner, no depth separation, no
	// migration queues).
	ws *deque.Deque[task]

	cache    *mlCache
	workerID int // fixed acting worker, or -1 for cache-level entities

	// lastGroup anchors the dominant-group walk for steals on behalf of
	// this entity (the "current position in the tree" of §3.2): the
	// cross-worker group of the last task it started. Worker-local groups
	// have no node of their own, so it changes only when the entity moves
	// between cross-worker groups, and noteStart stores it only then.
	lastGroup atomic.Pointer[sched.GroupNode]
}

func (e *entity) push(t *task, migration bool) {
	if e.ws != nil {
		// WS domains never migrate, and pushes come only from the entity's
		// acting worker.
		e.ws.PushBottom(t)
		return
	}
	e.mu.Lock()
	if migration {
		e.qs.PushMigration(t.depth, t)
	} else {
		e.qs.PushPrimary(t.depth, t)
	}
	e.mu.Unlock()
}

// popLocal pops the entity's next local task of depth >= minDepth
// (sched.QueueSet.PopLocalFrom). WS domains have no depths: every task and
// every floor there is 0.
func (e *entity) popLocal(minDepth int) *task {
	if e.ws != nil {
		t, ok := e.ws.PopBottom()
		if !ok {
			return nil
		}
		return t
	}
	e.mu.Lock()
	t, ok := e.qs.PopLocalFrom(minDepth)
	e.mu.Unlock()
	if !ok {
		return nil
	}
	return t
}

// queueLen reports the entity's current queue depth, for introspection
// snapshots (SchedSnapshot): lock-free on the WS deque fast path, one
// short lock on the ADWS queue set.
func (e *entity) queueLen() int {
	if e.ws != nil {
		return e.ws.Len()
	}
	e.mu.Lock()
	n := e.qs.Len()
	e.mu.Unlock()
	return n
}

func (e *entity) stealMigration(minDepth int) *task {
	e.mu.Lock()
	t, ok := e.qs.StealMigration(minDepth)
	e.mu.Unlock()
	if !ok {
		return nil
	}
	return t
}

func (e *entity) stealPrimary(minDepth int) *task {
	e.mu.Lock()
	t, ok := e.qs.StealPrimary(minDepth)
	e.mu.Unlock()
	if !ok {
		return nil
	}
	return t
}

func (e *entity) stealAny() *task {
	if e.ws != nil {
		t, ok := e.ws.Steal()
		if !ok {
			return nil
		}
		return t
	}
	e.mu.Lock()
	t, ok := e.qs.StealAny()
	e.mu.Unlock()
	if !ok {
		return nil
	}
	return t
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

// newEntity builds an entity for domain d, choosing the lock-free deque
// fast path for conventional work-stealing domains.
func newEntity(d *domain, idx int, mc *mlCache, workerID int) *entity {
	e := &entity{dom: d, idx: idx, cache: mc, workerID: workerID}
	if !d.adws {
		e.ws = deque.New[task]()
	}
	return e
}
