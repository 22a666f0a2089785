package sim

import (
	"slices"
	"testing"
	"testing/quick"

	"github.com/parlab/adws/internal/topology"
)

func TestSegmentAlloc(t *testing.T) {
	m := NewMemory(2, Interleave)
	a := m.Alloc("a", 3*ChunkSize)
	b := m.Alloc("b", 1) // rounds up to one chunk
	if a.NumChunks() != 3 || a.Bytes() != 3*ChunkSize {
		t.Errorf("a = %d chunks %d bytes", a.NumChunks(), a.Bytes())
	}
	if b.NumChunks() != 1 {
		t.Errorf("b = %d chunks, want 1", b.NumChunks())
	}
	if m.NumChunks() != 4 {
		t.Errorf("heap = %d chunks, want 4", m.NumChunks())
	}
	if a.first == b.first {
		t.Error("segments overlap")
	}
}

func TestSegmentSlice(t *testing.T) {
	m := NewMemory(1, Node0)
	s := m.Alloc("s", 8*ChunkSize)
	half := s.Slice(0, 4*ChunkSize)
	if half.NumChunks() != 4 || half.first != s.first {
		t.Errorf("first half = %d chunks at %d", half.NumChunks(), half.first)
	}
	rest := s.Slice(4*ChunkSize, 4*ChunkSize)
	if rest.NumChunks() != 4 || rest.first != s.first+4 {
		t.Errorf("second half = %d chunks at %d", rest.NumChunks(), rest.first)
	}
	// Sub-chunk slices round outward.
	tiny := s.Slice(ChunkSize/2, 10)
	if tiny.NumChunks() != 1 || tiny.first != s.first {
		t.Errorf("tiny = %d chunks at %d", tiny.NumChunks(), tiny.first)
	}
	// Clamping.
	over := s.Slice(6*ChunkSize, 100*ChunkSize)
	if over.NumChunks() != 2 {
		t.Errorf("over = %d chunks, want 2", over.NumChunks())
	}
	if neg := s.Slice(-5, ChunkSize); neg.first != s.first {
		t.Errorf("negative offset start = %d", neg.first)
	}
}

func TestNUMAPolicies(t *testing.T) {
	inter := NewMemory(2, Interleave)
	s := inter.Alloc("s", 4*ChunkSize)
	homes := map[int]int{}
	for i := 0; i < 4; i++ {
		homes[inter.Home(s.first+Chunk(i), 0)]++
	}
	if homes[0] != 2 || homes[1] != 2 {
		t.Errorf("interleave homes = %v, want 2/2", homes)
	}

	ft := NewMemory(2, FirstTouch)
	s2 := ft.Alloc("s2", 2*ChunkSize)
	if h := ft.Home(s2.first, 1); h != 1 {
		t.Errorf("first touch from node 1 = %d, want 1", h)
	}
	if h := ft.Home(s2.first, 0); h != 1 {
		t.Errorf("second touch from node 0 = %d, want 1 (sticky)", h)
	}

	n0 := NewMemory(2, Node0)
	s3 := n0.Alloc("s3", ChunkSize)
	if h := n0.Home(s3.first, 1); h != 0 {
		t.Errorf("node0 home = %d, want 0", h)
	}
}

func TestCacheSetLRU(t *testing.T) {
	cs := NewCacheSet(2 * ChunkSize) // 2 chunks
	if cs.Capacity() != 2 {
		t.Fatalf("capacity = %d", cs.Capacity())
	}
	if cs.Touch(1) {
		t.Error("first touch of 1 hit")
	}
	if cs.Touch(2) {
		t.Error("first touch of 2 hit")
	}
	if !cs.Touch(1) {
		t.Error("second touch of 1 missed")
	}
	// 2 is now LRU; inserting 3 evicts it.
	if cs.Touch(3) {
		t.Error("first touch of 3 hit")
	}
	if cs.Touch(2) {
		t.Error("touch of evicted 2 hit")
	}
	// Now 1 was evicted (LRU after touching 3, 2 inserted).
	if cs.Touch(1) {
		t.Error("touch of evicted 1 hit")
	}
	if cs.Len() != 2 {
		t.Errorf("len = %d, want 2", cs.Len())
	}
	cs.Flush()
	if cs.Len() != 0 || cs.Contains(1) {
		t.Error("flush did not empty the cache")
	}
}

// sliceLRU is the naive reference for CacheSet: resident chunks, most
// recently used first.
type sliceLRU struct {
	cap    int
	chunks []Chunk
}

func (l *sliceLRU) touch(c Chunk) bool {
	for i, x := range l.chunks {
		if x == c {
			copy(l.chunks[1:i+1], l.chunks[:i])
			l.chunks[0] = c
			return true
		}
	}
	if len(l.chunks) == l.cap {
		l.chunks = l.chunks[:l.cap-1]
	}
	l.chunks = append([]Chunk{c}, l.chunks...)
	return false
}

// Property: a CacheSet of any capacity agrees with the naive slice LRU on
// every hit and miss, on Len and on residency, across Flushes; it never
// exceeds its capacity and a touch of a resident chunk always hits.
func TestCacheSetProperty(t *testing.T) {
	f := func(capSel uint8, touches []uint8) bool {
		n := int(capSel%8) + 1
		cs := NewCacheSet(int64(n) * ChunkSize)
		ref := &sliceLRU{cap: n}
		for _, c := range touches {
			if c >= 240 {
				cs.Flush()
				ref.chunks = ref.chunks[:0]
				continue
			}
			ch := Chunk(c % 16)
			resident := cs.Contains(ch)
			hit := cs.Touch(ch)
			if hit != resident || hit != ref.touch(ch) {
				return false
			}
			if cs.Len() != len(ref.chunks) || cs.Len() > n || !cs.Contains(ch) {
				return false
			}
		}
		for c := Chunk(0); c < 16; c++ {
			if cs.Contains(c) != slices.Contains(ref.chunks, c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestHierarchyAccessCosts(t *testing.T) {
	m := topology.Flat(2, 4*ChunkSize, 1*ChunkSize)
	costs := DefaultCosts()
	mem := NewMemory(1, Node0)
	h := NewHierarchy(m, mem, &costs)
	s := mem.Alloc("s", 2*ChunkSize)

	// Cold: memory cost, misses at both levels.
	if c := h.Access(0, s.first); c != costs.MemPerChunk {
		t.Errorf("cold access cost = %v, want %v", c, costs.MemPerChunk)
	}
	if h.MissesAtPrivate() != 1 || h.MissesAtShared() != 1 {
		t.Errorf("misses = %d/%d, want 1/1", h.MissesAtPrivate(), h.MissesAtShared())
	}
	// Hot in private.
	if c := h.Access(0, s.first); c != costs.PrivateHitPerChunk {
		t.Errorf("hot access cost = %v, want %v", c, costs.PrivateHitPerChunk)
	}
	// Worker 1 misses private but hits shared.
	if c := h.Access(1, s.first); c != costs.SharedHitPerChunk {
		t.Errorf("shared hit cost = %v, want %v", c, costs.SharedHitPerChunk)
	}
	if h.MissesAtPrivate() != 2 {
		t.Errorf("private misses = %d, want 2", h.MissesAtPrivate())
	}
	if h.Accesses != 3 {
		t.Errorf("accesses = %d, want 3", h.Accesses)
	}
}

func TestHierarchyCapacityMisses(t *testing.T) {
	// Working set of 8 chunks over a 4-chunk shared cache: a second pass
	// misses everywhere (LRU with a cyclic sweep keeps evicting).
	m := topology.Flat(1, 4*ChunkSize, 2*ChunkSize)
	costs := DefaultCosts()
	mem := NewMemory(1, Node0)
	h := NewHierarchy(m, mem, &costs)
	s := mem.Alloc("s", 8*ChunkSize)

	h.AccessRange(0, []AccessSpec{Pass(s, 2)})
	if h.MissesAtShared() != 16 {
		t.Errorf("shared misses = %d, want 16 (capacity thrash)", h.MissesAtShared())
	}

	// A working set that fits is only cold once.
	mem2 := NewMemory(1, Node0)
	h2 := NewHierarchy(m, mem2, &costs)
	small := mem2.Alloc("small", 2*ChunkSize)
	h2.AccessRange(0, []AccessSpec{Pass(small, 3)})
	if h2.MissesAtShared() != 2 {
		t.Errorf("small-set shared misses = %d, want 2 (cold only)", h2.MissesAtShared())
	}
	if h2.MissesAtPrivate() != 2 {
		t.Errorf("small-set private misses = %d, want 2", h2.MissesAtPrivate())
	}
}

func TestHierarchyNUMACosts(t *testing.T) {
	m := topology.OakbridgeCX()
	costs := DefaultCosts()
	mem := NewMemory(m.NumNUMANodes(), Interleave)
	h := NewHierarchy(m, mem, &costs)
	s := mem.Alloc("s", 2*ChunkSize) // chunk 0 on node 0, chunk 1 on node 1

	if c := h.Access(0, s.first); c != costs.MemPerChunk {
		t.Errorf("local access cost = %v, want %v", c, costs.MemPerChunk)
	}
	if c := h.Access(0, s.first+1); c != costs.RemotePerChunk {
		t.Errorf("remote access cost = %v, want %v", c, costs.RemotePerChunk)
	}
	if h.RemoteAccesses != 1 {
		t.Errorf("remote accesses = %d, want 1", h.RemoteAccesses)
	}
}

func TestFlushAndReset(t *testing.T) {
	m := topology.Flat(1, 4*ChunkSize, 2*ChunkSize)
	costs := DefaultCosts()
	mem := NewMemory(1, Node0)
	h := NewHierarchy(m, mem, &costs)
	s := mem.Alloc("s", 2*ChunkSize)
	h.AccessRange(0, []AccessSpec{Pass(s, 1)})
	h.ResetCounters()
	if h.Accesses != 0 || h.MissesAtPrivate() != 0 {
		t.Error("ResetCounters did not zero counters")
	}
	// Content kept: re-access hits.
	if c := h.Access(0, s.first); c != costs.PrivateHitPerChunk {
		t.Errorf("after reset, access cost = %v, want private hit", c)
	}
	h.FlushAll()
	if c := h.Access(0, s.first); c != costs.MemPerChunk {
		t.Errorf("after flush, access cost = %v, want memory", c)
	}
}
