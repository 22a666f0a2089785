package sched

import (
	"testing"
	"testing/quick"
)

func TestDequeEnds(t *testing.T) {
	var d Deque[int]
	if _, ok := d.PopTop(); ok {
		t.Error("PopTop on empty deque succeeded")
	}
	if _, ok := d.PopBottom(); ok {
		t.Error("PopBottom on empty deque succeeded")
	}
	d.PushTop(1)
	d.PushTop(2)
	d.PushTop(3)
	if d.Len() != 3 {
		t.Fatalf("Len = %d", d.Len())
	}
	if v, _ := d.PopTop(); v != 3 {
		t.Errorf("PopTop = %d, want 3 (LIFO)", v)
	}
	if v, _ := d.PopBottom(); v != 1 {
		t.Errorf("PopBottom = %d, want 1 (oldest)", v)
	}
	if v, _ := d.PopTop(); v != 2 {
		t.Errorf("final PopTop = %d, want 2", v)
	}
	if d.Len() != 0 {
		t.Errorf("Len = %d, want 0", d.Len())
	}
}

func TestQueueSetLocalOrder(t *testing.T) {
	// Local pops drain primary queues deepest-depth-first, LIFO within a
	// depth, then migration queues shallowest-first, FIFO within a depth
	// (Fig. 11 lines 33–38, yielding Fig. 8's left-to-right order).
	var q QueueSet[string]
	q.PushPrimary(0, "p0a")
	q.PushPrimary(0, "p0b")
	q.PushPrimary(2, "p2a")
	q.PushMigration(0, "m0a")
	q.PushMigration(0, "m0b")
	q.PushMigration(1, "m1a")

	want := []string{"p2a", "p0b", "p0a", "m0a", "m0b", "m1a"}
	for i, w := range want {
		v, ok := q.PopLocal()
		if !ok {
			t.Fatalf("PopLocal #%d failed", i)
		}
		if v != w {
			t.Errorf("PopLocal #%d = %q, want %q", i, v, w)
		}
	}
	if _, ok := q.PopLocal(); ok {
		t.Error("PopLocal on empty set succeeded")
	}
}

func TestQueueSetPopLocalFromFloor(t *testing.T) {
	// A floored pop takes primaries deepest-first down to the floor, then
	// migrations from the floor up, and leaves everything shallower queued.
	var q QueueSet[string]
	q.PushPrimary(0, "p0")
	q.PushPrimary(1, "p1")
	q.PushPrimary(3, "p3")
	q.PushMigration(0, "m0")
	q.PushMigration(1, "m1")
	q.PushMigration(2, "m2")

	for i, w := range []string{"p3", "p1", "m1", "m2"} {
		if v, ok := q.PopLocalFrom(1); !ok || v != w {
			t.Errorf("PopLocalFrom(1) #%d = %q,%v, want %q", i, v, ok, w)
		}
	}
	if v, ok := q.PopLocalFrom(1); ok {
		t.Errorf("PopLocalFrom(1) took %q from below the floor", v)
	}
	if q.PrimaryLen() != 1 || q.MigrationLen() != 1 {
		t.Errorf("left %d primary / %d migration, want 1 / 1", q.PrimaryLen(), q.MigrationLen())
	}
	// A floor beyond the deepest queue is simply empty.
	if _, ok := q.PopLocalFrom(9); ok {
		t.Error("PopLocalFrom(9) succeeded")
	}
	for i, w := range []string{"p0", "m0"} {
		if v, ok := q.PopLocal(); !ok || v != w {
			t.Errorf("PopLocal #%d = %q,%v, want %q", i, v, ok, w)
		}
	}
}

func TestQueueSetStealOrder(t *testing.T) {
	// Thieves prefer migration queues deepest-first, taking the most
	// recently migrated task, then primary queues shallowest-first, taking
	// the oldest task (Fig. 11 lines 44–50).
	var q QueueSet[string]
	q.PushPrimary(0, "p0a")
	q.PushPrimary(0, "p0b")
	q.PushPrimary(2, "p2a")
	q.PushMigration(0, "m0a")
	q.PushMigration(1, "m1a")
	q.PushMigration(1, "m1b")

	steals := []string{"m1b", "m1a", "m0a", "p0a", "p0b", "p2a"}
	for i, w := range steals {
		var v string
		var ok bool
		if v, ok = q.StealMigration(0); !ok {
			v, ok = q.StealPrimary(0)
		}
		if !ok {
			t.Fatalf("steal #%d failed", i)
		}
		if v != w {
			t.Errorf("steal #%d = %q, want %q", i, v, w)
		}
	}
}

func TestQueueSetDepthRestriction(t *testing.T) {
	var q QueueSet[int]
	q.PushPrimary(0, 100)
	q.PushMigration(0, 200)
	q.PushPrimary(2, 102)
	q.PushMigration(2, 202)

	// minDepth 1: only depth-2 tasks are stealable.
	if v, ok := q.StealMigration(1); !ok || v != 202 {
		t.Errorf("StealMigration(1) = %d,%v, want 202", v, ok)
	}
	if v, ok := q.StealPrimary(1); !ok || v != 102 {
		t.Errorf("StealPrimary(1) = %d,%v, want 102", v, ok)
	}
	if _, ok := q.StealMigration(1); ok {
		t.Error("depth-0 migration task stolen despite minDepth 1")
	}
	if _, ok := q.StealPrimary(1); ok {
		t.Error("depth-0 primary task stolen despite minDepth 1")
	}
	// Depth-0 tasks remain available locally.
	if q.Len() != 2 {
		t.Errorf("Len = %d, want 2", q.Len())
	}
	if v, _ := q.PopLocal(); v != 100 {
		t.Errorf("PopLocal = %d, want 100", v)
	}
	if v, _ := q.PopLocal(); v != 200 {
		t.Errorf("PopLocal = %d, want 200", v)
	}
}

func TestQueueSetCounters(t *testing.T) {
	var q QueueSet[int]
	q.PushPrimary(3, 1)
	q.PushMigration(5, 2)
	if q.PrimaryLen() != 1 || q.MigrationLen() != 1 || q.Len() != 2 {
		t.Errorf("counters = %d/%d/%d", q.PrimaryLen(), q.MigrationLen(), q.Len())
	}
	q.PopLocal()
	q.PopLocal()
	if q.Len() != 0 {
		t.Errorf("Len after draining = %d", q.Len())
	}
}

// Property: every pushed task is popped exactly once, regardless of the
// interleaving of local pops and steals.
func TestQueueSetConservationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		var q QueueSet[int]
		pushed := 0
		popped := map[int]bool{}
		next := 0
		for _, op := range ops {
			switch op % 5 {
			case 0:
				q.PushPrimary(int(op%3), next)
				next++
				pushed++
			case 1:
				q.PushMigration(int(op%4), next)
				next++
				pushed++
			case 2:
				if v, ok := q.PopLocalFrom(int(op % 3)); ok {
					if popped[v] {
						return false
					}
					popped[v] = true
				}
			case 3:
				if v, ok := q.StealMigration(int(op % 2)); ok {
					if popped[v] {
						return false
					}
					popped[v] = true
				}
			case 4:
				if v, ok := q.StealPrimary(int(op % 2)); ok {
					if popped[v] {
						return false
					}
					popped[v] = true
				}
			}
		}
		// Drain the rest.
		for {
			v, ok := q.PopLocal()
			if !ok {
				break
			}
			if popped[v] {
				return false
			}
			popped[v] = true
		}
		return len(popped) == pushed && q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQueueSetDeepestHint(t *testing.T) {
	// The hint only bounds the non-empty primary queues from above: it
	// follows pushes up, follows the owner's pops down past queues a thief
	// emptied, and never hides a task.
	var q QueueSet[string]
	q.PushPrimary(0, "p0")
	q.PushPrimary(20, "p20")
	q.PushPrimary(7, "p7")
	if v, _ := q.StealPrimary(20); v != "p20" {
		t.Fatalf("StealPrimary(20) = %q, want p20", v)
	}
	if _, ok := q.PopLocalFrom(8); ok {
		t.Error("PopLocalFrom(8) found a task above an empty depth 20")
	}
	if q.deepest != 7 {
		t.Errorf("deepest = %d after a floored pop over empty depths 20..8, want 7", q.deepest)
	}
	q.PushPrimary(3, "p3")
	for i, w := range []string{"p7", "p3", "p0"} {
		if v, ok := q.PopLocal(); !ok || v != w {
			t.Errorf("PopLocal #%d = %q,%v, want %q", i, v, ok, w)
		}
	}
	if _, ok := q.PopLocal(); ok {
		t.Error("PopLocal on empty set succeeded")
	}
	q.PushPrimary(2, "again")
	if v, ok := q.PopLocal(); !ok || v != "again" {
		t.Errorf("PopLocal after draining = %q,%v, want again", v, ok)
	}
}

func TestStealPrimaryWhereClearsVacatedSlot(t *testing.T) {
	// Removing from the middle shifts the tail down; the slot it vacates
	// must not keep a pointer to the last task alive in the backing array.
	var q QueueSet[*int]
	vals := []*int{new(int), new(int), new(int)}
	for i, v := range vals {
		*v = i
		q.PushPrimary(0, v)
	}
	got, ok := q.StealPrimaryWhere(0, func(v *int) bool { return *v == 1 })
	if !ok || got != vals[1] {
		t.Fatalf("StealPrimaryWhere = %v,%v, want the middle task", got, ok)
	}
	items := q.primary[0].items
	if len(items) != 2 || items[0] != vals[0] || items[1] != vals[2] {
		t.Fatalf("queue after removal = %v, want tasks 0 and 2", items)
	}
	if stale := items[:3][2]; stale != nil {
		t.Errorf("vacated slot still holds task %d", *stale)
	}
	if q.PrimaryLen() != 2 {
		t.Errorf("PrimaryLen = %d, want 2", q.PrimaryLen())
	}
}
