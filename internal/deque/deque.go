// Package deque implements the Chase–Lev lock-free work-stealing deque
// (Chase & Lev, SPAA 2005; Lê et al., PPoPP 2013 for the memory-model
// treatment). The owner pushes and pops at the bottom without contention;
// thieves steal from the top with a single CAS. The adws runtime uses one
// per task depth for the primary tasks an entity's own worker pushes, under
// ADWS and conventional work stealing alike (the latter has one depth);
// queues with more than one producer — migrated tasks, cache-level entities
// — are a locked sched.QueueSet instead (internal/runtime/domain.go).
package deque

import "sync/atomic"

// ring is a circular buffer of a power-of-two size.
type ring[T any] struct {
	mask int64
	buf  []atomic.Pointer[T]
}

func newRing[T any](capacity int64) *ring[T] {
	// Ring doubling is amortized O(1) per push and off the steady state:
	// once the ring fits the peak task count it never allocates again.
	//adws:allow amortized growth (docs/LINT.md hotalloc policy)
	return &ring[T]{mask: capacity - 1, buf: make([]atomic.Pointer[T], capacity)}
}

func (r *ring[T]) get(i int64) *T    { return r.buf[i&r.mask].Load() }
func (r *ring[T]) put(i int64, v *T) { r.buf[i&r.mask].Store(v) }
func (r *ring[T]) grow(b, t int64) *ring[T] {
	nr := newRing[T]((r.mask + 1) * 2)
	for i := t; i < b; i++ {
		nr.put(i, r.get(i))
	}
	return nr
}

// Deque is a lock-free work-stealing deque of *T. The zero value is not
// usable; call New.
type Deque[T any] struct {
	top    atomic.Int64
	bottom atomic.Int64
	ring   atomic.Pointer[ring[T]]
}

// MinCapacity is the initial ring size. It is small because the runtime
// keeps a ring per task depth and does not clear a slot on pop: a popped
// slot pins its task, and the finished subtree the task's group reaches,
// until the slot is overwritten or the drained ring is cleared (Forget),
// and the garbage collector marks all of it meanwhile. A depth-first
// frontier holds about one task per level, so a ring this size is reused
// within a few pushes; growth is amortized.
const MinCapacity = 8

// New creates an empty deque.
func New[T any]() *Deque[T] {
	d := &Deque[T]{}
	d.ring.Store(newRing[T](MinCapacity))
	return d
}

// Len returns a point-in-time size estimate.
//
//adws:hotpath
func (d *Deque[T]) Len() int {
	b := d.bottom.Load()
	t := d.top.Load()
	if b < t {
		return 0
	}
	return int(b - t)
}

// PushBottom appends v at the owner's end. Only the owning worker may call
// it.
//
//adws:hotpath
func (d *Deque[T]) PushBottom(v *T) {
	b := d.bottom.Load()
	t := d.top.Load()
	r := d.ring.Load()
	if b-t > r.mask { // full
		r = r.grow(b, t)
		d.ring.Store(r)
	}
	r.put(b, v)
	d.bottom.Store(b + 1)
}

// PopBottom removes and returns the most recently pushed element. Only the
// owning worker may call it.
//
//adws:hotpath
func (d *Deque[T]) PopBottom() (*T, bool) {
	b := d.bottom.Load() - 1
	r := d.ring.Load()
	d.bottom.Store(b)
	t := d.top.Load()
	switch {
	case t > b:
		// Empty: restore.
		d.bottom.Store(b + 1)
		return nil, false
	case t == b:
		// Last element: race with thieves via CAS on top.
		v := r.get(b)
		if !d.top.CompareAndSwap(t, t+1) {
			v = nil // lost to a thief
		}
		d.bottom.Store(b + 1)
		if v == nil {
			return nil, false
		}
		return v, true
	default:
		return r.get(b), true
	}
}

// Forget clears the slots of a drained deque, so that what was popped and
// stolen from it stops being reachable through the ring. Only the owning
// worker may call it, and only right after PopBottom reported the deque
// empty: top then equals bottom, and a thief still holding an older top
// fails its CAS whatever it reads. The slots written since the deque was
// last all nil are one run around bottom — up to the highest bottom reached,
// down to the lowest top — so the cost is one store per slot that run
// holds, at most one per push since the last call.
//
//adws:hotpath
func (d *Deque[T]) Forget() {
	b := d.bottom.Load()
	r := d.ring.Load()
	for i := b; i-b <= r.mask && r.get(i) != nil; i++ {
		r.put(i, nil)
	}
	// Slot b is nil now, so the walk down ends within one lap.
	for i := b - 1; r.get(i) != nil; i-- {
		r.put(i, nil)
	}
}

// Steal removes and returns the oldest element. Any goroutine may call it.
//
//adws:hotpath
func (d *Deque[T]) Steal() (*T, bool) {
	for {
		t := d.top.Load()
		b := d.bottom.Load()
		if t >= b {
			return nil, false
		}
		r := d.ring.Load()
		v := r.get(t)
		if d.top.CompareAndSwap(t, t+1) {
			return v, true
		}
		// Lost the race; retry unless now empty.
	}
}
