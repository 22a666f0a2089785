package sim

import (
	"github.com/parlab/adws/internal/sched"
	"github.com/parlab/adws/internal/topology"
)

// entity is one scheduling slot of a domain. In a worker-level domain an
// entity is permanently bound to one worker; in a cache-level domain it
// represents a cache and is acted on by the cache's current leader.
type entity struct {
	dom *domain
	// idx is the physical index of the entity within the domain.
	idx int
	// queues holds the tasks assigned to this entity.
	queues sched.QueueSet[*Task]
	// cache is the mlCache this entity represents (nil for worker-level
	// domains).
	cache *mlCache
	// worker is the fixed acting worker for worker-level domains (-1 for
	// cache-level domains, where the acting worker is the cache leader).
	worker int
	// lastGroup is the cross-worker group of the last ADWS task this
	// entity executed; it anchors the dominant-group walk for steals.
	lastGroup *sched.GroupNode
}

// actingWorker returns the worker currently acting for entity ent, or -1.
func (e *Engine) actingWorker(ent *entity) int {
	if ent.cache != nil {
		return e.lead.Leader(ent.cache.cache)
	}
	return ent.worker
}

// domain is one single-level scheduling arena: a set of entities plus a
// policy (ADWS or conventional WS). The root domain exists for the whole
// run; multi-level scheduling creates and destroys domains as task groups
// are tied to caches or hierarchies are flattened. The embedded Axis maps
// between the physical entity indices and the logical axis the domain's
// distribution ranges live on.
type domain struct {
	sched.Axis
	id       int
	adws     bool
	entities []*entity
	// caches[i] is the cache entity i stands for in a cache-level domain;
	// nil in worker-level domains.
	caches []*topology.Cache
	// level is the cache level of the entities (worker-level domains use
	// the machine's leaf level).
	level int
	// flattened marks a worker-level domain created by cache-hierarchy
	// flattening.
	flattened bool
	// closed marks a domain whose work is finished.
	closed bool
}

// mlCache is the per-cache state of multi-level scheduling. Who leads the
// cache is in Engine.lead.
type mlCache struct {
	cache *topology.Cache
	// tied is the task group currently tied to this cache (nil if none).
	tied *activeGroup
	// entity is this cache's entity in the currently active domain over
	// its parent's children (nil while no such domain exists).
	entity *entity
	// childDomain is the domain over this cache's children while a group
	// is tied here (nil otherwise).
	childDomain *domain
}
