package trace

import (
	"testing"
	"unsafe"
)

// The tracer keeps one ring per worker in a single slice, so the layout —
// not a sync primitive — is what stops worker i's cursor stores from
// invalidating worker i+1's cursor or buffer header. This test is the
// only check of that layout: it pins what the compiler produced.
func TestRingLayout(t *testing.T) {
	const cacheLine = 64
	var r ring
	if got := unsafe.Offsetof(r.cursor); got != 0 {
		t.Errorf("Offsetof(ring.cursor) = %d, want 0", got)
	}
	if got := unsafe.Offsetof(r.buf); got%cacheLine != 0 || got < cacheLine {
		t.Errorf("Offsetof(ring.buf) = %d, want a cache-line boundary past the cursor's line", got)
	}
	if got := unsafe.Sizeof(r); got%cacheLine != 0 {
		t.Errorf("Sizeof(ring) = %d, want a multiple of %d", got, cacheLine)
	}
	// Adjacent rings in the tracer's slice must not share a line.
	rings := make([]ring, 2)
	stride := uintptr(unsafe.Pointer(&rings[1])) - uintptr(unsafe.Pointer(&rings[0]))
	if stride%cacheLine != 0 {
		t.Errorf("ring slice stride = %d, want a multiple of %d", stride, cacheLine)
	}
}
