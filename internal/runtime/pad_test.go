package runtime

import (
	"testing"
	"unsafe"
)

// The false-sharing guarantees the scheduler relies on are structural: the
// idle-mask words and the per-worker counter block must each own whole
// cache lines. These tests are the only check of that layout: they pin
// the offsets and sizes the compiler produced, so a deleted pad or a
// field reorder that silently changes them fails here.

const cacheLine = 64

func TestPaddedWordLayout(t *testing.T) {
	var w paddedWord
	if got := unsafe.Sizeof(w); got != cacheLine {
		t.Errorf("Sizeof(paddedWord) = %d, want %d", got, cacheLine)
	}
	if got := unsafe.Alignof(w); cacheLine%got != 0 {
		t.Errorf("Alignof(paddedWord) = %d does not divide the cache line", got)
	}
	// In the pool's idleWords slice, consecutive words must land on
	// distinct lines: the element stride is the struct size.
	words := make([]paddedWord, 2)
	stride := uintptr(unsafe.Pointer(&words[1])) - uintptr(unsafe.Pointer(&words[0]))
	if stride != cacheLine {
		t.Errorf("idle-mask element stride = %d, want %d", stride, cacheLine)
	}
}

func TestWorkerStatsLayout(t *testing.T) {
	var w worker
	if got := unsafe.Offsetof(w.stats); got%cacheLine != 0 {
		t.Errorf("Offsetof(worker.stats) = %d, want a multiple of %d", got, cacheLine)
	}
	var s workerStats
	size := unsafe.Sizeof(s)
	if size%cacheLine != 0 {
		t.Errorf("Sizeof(workerStats) = %d, want a multiple of %d", size, cacheLine)
	}
	if size < cacheLine {
		t.Errorf("Sizeof(workerStats) = %d, want at least one cache line", size)
	}
	// The stats block must fully cover its lines so the scheduling fields
	// behind it (id, pool, rng, ...) start on a fresh line.
	if unsafe.Offsetof(w.stats)+size > unsafe.Offsetof(w.id) {
		t.Errorf("worker.id at offset %d overlaps the stats block [%d, %d)",
			unsafe.Offsetof(w.id), unsafe.Offsetof(w.stats), unsafe.Offsetof(w.stats)+size)
	}
	if unsafe.Offsetof(w.id)%cacheLine != 0 {
		t.Errorf("Offsetof(worker.id) = %d, want a multiple of %d (first field after the padded stats block)",
			unsafe.Offsetof(w.id), cacheLine)
	}
}

// A group is allocated once per Ctx.Group under every policy, as the
// TaskGroup handle that holds the taskGroup by value, so its size class is
// part of the spawn cost WS and ADWS share: 128 bytes is a malloc size
// class and the next one is 144. Per-group state only cross-worker groups
// need (the Splitter) hangs off a pointer for that reason.
func TestTaskGroupSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(TaskGroup{}); got > 128 {
		t.Errorf("Sizeof(TaskGroup) = %d, want <= 128", got)
	}
}

// A task is allocated for every Spawn and carries the Ctx its body
// receives, so its size class is what a task costs: 96 bytes is a malloc
// size class and the next one is 112.
func TestTaskSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(task{}); got > 96 {
		t.Errorf("Sizeof(task) = %d, want <= 96", got)
	}
}

// A job's task count has one slot per worker, bumped by that worker on
// every task it runs for the job: consecutive slots must land on distinct
// lines.
func TestJobShardLayout(t *testing.T) {
	if got := unsafe.Sizeof(jobShard{}); got != cacheLine {
		t.Errorf("Sizeof(jobShard) = %d, want %d", got, cacheLine)
	}
}
