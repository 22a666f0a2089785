package metrics

import (
	"testing"
	"unsafe"
)

// The padded cell and histogram shard must each span a whole number of
// cache lines so adjacent counters and adjacent per-worker shards never
// false-share. These assertions are the only check of that layout: they
// pin the concrete sizes and offsets, so a deleted pad or a field reorder
// fails loudly.

func TestPaddedCellLayout(t *testing.T) {
	if s := unsafe.Sizeof(padded{}); s != 64 {
		t.Fatalf("padded cell is %d bytes, want exactly one 64-byte line", s)
	}
	if o := unsafe.Offsetof(Counter{}.cell); o != 0 {
		t.Fatalf("Counter.cell at offset %d, want 0 (must start a cache line)", o)
	}
}

func TestHistShardLayout(t *testing.T) {
	s := unsafe.Sizeof(histShard{})
	if s%64 != 0 {
		t.Fatalf("histShard is %d bytes, not a multiple of 64", s)
	}
	// 257 8-byte buckets + sum + max + 40 pad = 2112 bytes = 33 lines.
	if want := uintptr(NumBuckets*8+16+40) / 64 * 64; s != want {
		t.Fatalf("histShard is %d bytes, want %d", s, want)
	}
	var h histShard
	if o := unsafe.Offsetof(h.sum); o != uintptr(NumBuckets)*8 {
		t.Fatalf("histShard.sum at offset %d, want %d", o, NumBuckets*8)
	}
}
