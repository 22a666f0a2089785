package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// lazyQueue is the event queue the engine used before eventQueue: one
// container/heap entry per schedule call, superseded entries skipped when
// popped. It is the reference eventQueue must reproduce pop for pop.
type lazyQueue struct {
	h    lazyHeap
	gseq int64
	wseq []int64 // per worker: sequence of its live event
	live []bool
}

type lazyEvent struct {
	t          float64
	gseq, wseq int64
	w          int
}

type lazyHeap []lazyEvent

func (h lazyHeap) Len() int { return len(h) }
func (h lazyHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].gseq < h[j].gseq
}
func (h lazyHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *lazyHeap) Push(x any)   { *h = append(*h, x.(lazyEvent)) }
func (h *lazyHeap) Pop() any     { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

func (q *lazyQueue) schedule(w int, t float64) {
	q.wseq[w]++
	q.live[w] = true
	q.gseq++
	heap.Push(&q.h, lazyEvent{t: t, gseq: q.gseq, wseq: q.wseq[w], w: w})
}

// pop returns the earliest live event, or w = -1 when none is left.
func (q *lazyQueue) pop() (w int, t float64) {
	for len(q.h) > 0 {
		ev := heap.Pop(&q.h).(lazyEvent)
		if !q.live[ev.w] || ev.wseq != q.wseq[ev.w] {
			continue // superseded
		}
		q.live[ev.w] = false
		return ev.w, ev.t
	}
	return -1, 0
}

// TestEventQueueMatchesLazyHeap drives eventQueue and the lazy-deletion
// heap it replaced with the same random schedules, reschedules (earlier,
// later and at an equal time, on a coarse time grid so that ties are
// common) and pops, and requires identical pop sequences: the simulated
// run depends on nothing else about the queue.
func TestEventQueueMatchesLazyHeap(t *testing.T) {
	for _, p := range []int{1, 2, 16, 64} {
		rng := rand.New(rand.NewSource(int64(p)))
		for round := 0; round < 20; round++ {
			workers := make([]*worker, p)
			for i := range workers {
				workers[i] = &worker{id: i, qpos: -1}
			}
			var q eventQueue
			ref := lazyQueue{wseq: make([]int64, p), live: make([]bool, p)}
			now := 0.0
			for op := 0; op < 2000; op++ {
				if rng.Intn(5) < 2 {
					gw, gt := -1, 0.0
					if len(q.h) > 0 {
						w := q.pop()
						if w.qpos != -1 {
							t.Fatalf("P=%d: popped worker keeps qpos %d", p, w.qpos)
						}
						gw, gt = w.id, w.eventTime
					}
					if rw, rt := ref.pop(); gw != rw || gt != rt {
						t.Fatalf("P=%d round %d op %d: popped worker %d at %v, reference pops worker %d at %v", p, round, op, gw, gt, rw, rt)
					}
					if gw >= 0 {
						now = gt
					}
					continue
				}
				w := workers[rng.Intn(p)]
				at := now + float64(rng.Intn(4))
				if w.qpos >= 0 {
					switch rng.Intn(3) {
					case 0: // earlier
						at = max(now, w.eventTime-1)
					case 1: // equal
						at = w.eventTime
					default: // later
						at = w.eventTime + float64(rng.Intn(3))
					}
				}
				q.schedule(w, at)
				ref.schedule(w.id, at)
				for i, x := range q.h {
					if x.qpos != i {
						t.Fatalf("P=%d: worker %d at heap position %d records qpos %d", p, x.id, i, x.qpos)
					}
				}
				if len(q.h) > p {
					t.Fatalf("P=%d: %d queued events", p, len(q.h))
				}
			}
			for len(q.h) > 0 {
				got := q.pop()
				if rw, rt := ref.pop(); got.id != rw || got.eventTime != rt {
					t.Fatalf("P=%d round %d drain: popped worker %d at %v, reference pops worker %d at %v", p, round, got.id, got.eventTime, rw, rt)
				}
			}
			if rw, _ := ref.pop(); rw >= 0 {
				t.Fatalf("P=%d round %d: reference still holds worker %d", p, round, rw)
			}
		}
	}
}
