package sched

// Deque is a slice-backed double-ended queue. The "top" end serves local
// LIFO push/pop; the "bottom" end serves FIFO pops and steals. It is not
// synchronized: the real runtime guards each entity's QueueSet with a lock,
// and the simulator is single-threaded.
type Deque[T any] struct {
	items []T
}

// Len returns the number of queued items.
func (d *Deque[T]) Len() int { return len(d.items) }

// PushTop appends an item at the top (local LIFO end).
func (d *Deque[T]) PushTop(v T) { d.items = append(d.items, v) }

// PopTop removes and returns the top item (most recently PushTop'd).
func (d *Deque[T]) PopTop() (T, bool) {
	var zero T
	n := len(d.items)
	if n == 0 {
		return zero, false
	}
	v := d.items[n-1]
	d.items[n-1] = zero
	d.items = d.items[:n-1]
	return v, true
}

// PopBottom removes and returns the bottom item (oldest).
func (d *Deque[T]) PopBottom() (T, bool) {
	var zero T
	if len(d.items) == 0 {
		return zero, false
	}
	v := d.items[0]
	copy(d.items, d.items[1:])
	d.items[len(d.items)-1] = zero
	d.items = d.items[:len(d.items)-1]
	return v, true
}

// QueueSet holds one entity's task queues for ADWS: primary queues for
// tasks the entity creates itself and migration queues for tasks passed
// from other entities, both separated by task depth (paper Fig. 8).
//
// Orientation of each queue:
//
//	primary:   local push/pop at the top (LIFO); steals at the bottom, so a
//	           thief takes the oldest, largest-granularity task.
//	migration: migrating entities push at the back; the owner pops at the
//	           front (FIFO, oldest migrated first); thieves take from the
//	           back (the opposite side of local pops, per Fig. 8 footnote).
type QueueSet[T any] struct {
	primary   []Deque[T]
	migration []Deque[T]
	nPrimary  int
	nMig      int
	// deepest bounds the non-empty primary queues from above: every primary
	// queue at a greater depth is empty. PopLocalFrom starts there, not at
	// the deepest depth the set ever held.
	deepest int
}

func (q *QueueSet[T]) growTo(depth int) {
	for len(q.primary) <= depth {
		q.primary = append(q.primary, Deque[T]{})
		q.migration = append(q.migration, Deque[T]{})
	}
}

// Len returns the total number of queued tasks.
func (q *QueueSet[T]) Len() int { return q.nPrimary + q.nMig }

// PrimaryLen returns the number of tasks in the primary queues.
func (q *QueueSet[T]) PrimaryLen() int { return q.nPrimary }

// MigrationLen returns the number of tasks in the migration queues.
func (q *QueueSet[T]) MigrationLen() int { return q.nMig }

// PushPrimary pushes a locally created task at depth d.
func (q *QueueSet[T]) PushPrimary(d int, v T) {
	q.growTo(d)
	q.primary[d].PushTop(v)
	q.nPrimary++
	if d > q.deepest {
		q.deepest = d
	}
}

// PushMigration records a task at depth d migrated here by another entity.
func (q *QueueSet[T]) PushMigration(d int, v T) {
	q.growTo(d)
	q.migration[d].PushTop(v) // "back" of the FIFO
	q.nMig++
}

// PopLocalFrom implements the local side of GetRunnableTask (paper Fig. 11
// lines 33–38) for an owner that may only run tasks of depth >= minDepth:
// primary queues are checked from the bottom up (deepest depth first, LIFO
// within a depth) down to minDepth, then migration queues from minDepth up
// (shallowest depth first, FIFO within a depth). This yields the
// left-to-right execution order of Fig. 8. A worker blocked in a task-group
// wait passes the depth of the group's children, so that the tasks of
// enclosing groups stay queued — for the owner once the wait returns, or
// for a thief — instead of running nested under the wait and burying its
// continuation; everyone else passes 0 (PopLocal).
func (q *QueueSet[T]) PopLocalFrom(minDepth int) (T, bool) {
	var zero T
	if q.nPrimary > 0 {
		for d := q.deepest; d >= minDepth; d-- {
			if v, ok := q.primary[d].PopTop(); ok {
				q.nPrimary--
				return v, true
			}
			q.deepest = d - 1
		}
	}
	if q.nMig > 0 {
		for d := minDepth; d < len(q.migration); d++ {
			if v, ok := q.migration[d].PopBottom(); ok {
				q.nMig--
				return v, true
			}
		}
	}
	return zero, false
}

// PopLocal is PopLocalFrom without a depth floor.
func (q *QueueSet[T]) PopLocal() (T, bool) { return q.PopLocalFrom(0) }

// StealMigration implements a thief's first preference (Fig. 11 lines
// 44–46): migration queues checked from the bottom up (deepest first),
// taking the most recently migrated task (the end opposite local pops),
// restricted to depths >= minDepth.
func (q *QueueSet[T]) StealMigration(minDepth int) (T, bool) {
	var zero T
	if q.nMig == 0 {
		return zero, false
	}
	for d := len(q.migration) - 1; d >= minDepth; d-- {
		if v, ok := q.migration[d].PopTop(); ok {
			q.nMig--
			return v, true
		}
	}
	return zero, false
}

// StealPrimary implements a thief's second preference (Fig. 11 lines
// 48–50): primary queues checked from the top down (shallowest first),
// taking the oldest task (the bottom, opposite the local LIFO end),
// restricted to depths >= minDepth.
func (q *QueueSet[T]) StealPrimary(minDepth int) (T, bool) {
	var zero T
	if q.nPrimary == 0 {
		return zero, false
	}
	for d := minDepth; d < len(q.primary); d++ {
		if v, ok := q.primary[d].PopBottom(); ok {
			q.nPrimary--
			return v, true
		}
	}
	return zero, false
}

// StealPrimaryWhere steals the oldest primary task satisfying pred,
// scanning shallowest depth first. Used by schedulers whose tasks have
// placement constraints (the space-bounded scheduler's anchor check).
func (q *QueueSet[T]) StealPrimaryWhere(minDepth int, pred func(T) bool) (T, bool) {
	var zero T
	if q.nPrimary == 0 {
		return zero, false
	}
	for d := minDepth; d < len(q.primary); d++ {
		items := q.primary[d].items
		for i := 0; i < len(items); i++ {
			if pred(items[i]) {
				v := items[i]
				copy(items[i:], items[i+1:])
				items[len(items)-1] = zero
				q.primary[d].items = items[:len(items)-1]
				q.nPrimary--
				return v, true
			}
		}
	}
	return zero, false
}
