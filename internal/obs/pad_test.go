package obs

import (
	"testing"
	"unsafe"
)

// Every recorded event stores worker w's timestamp in last[w], so the
// slots of two workers must never share a cache line. This test pins the
// compiled layout: a paddedNS that loses its padding fails here.
func TestPaddedNSLayout(t *testing.T) {
	const cacheLine = 64
	if got := unsafe.Sizeof(paddedNS{}); got != cacheLine {
		t.Errorf("Sizeof(paddedNS) = %d, want %d", got, cacheLine)
	}
	r := NewRecorder(Config{Workers: 2, Capacity: 16})
	stride := uintptr(unsafe.Pointer(&r.last[1])) - uintptr(unsafe.Pointer(&r.last[0]))
	if stride != cacheLine {
		t.Errorf("Recorder.last stride = %d, want %d", stride, cacheLine)
	}
}
