package sim

import (
	"fmt"

	"github.com/parlab/adws/internal/topology"
)

// ChunkSize is the granularity of the memory and cache model: the virtual
// heap is divided into fixed-size chunks, caches hold whole chunks, and
// memory costs are charged per chunk. 64 KB is the coarsest granularity
// that still resolves the benchmarks' leaf cutoffs (32–256 KB).
const ChunkSize = 64 << 10

// Chunk identifies one chunk of the virtual heap.
type Chunk int32

// Segment is a contiguous allocation in the virtual heap, identified by
// its chunk range. Workloads allocate segments to describe their working
// sets; no real memory is allocated.
type Segment struct {
	Name  string
	first Chunk
	nchk  int32
}

// Bytes returns the segment size in bytes.
func (s Segment) Bytes() int64 { return int64(s.nchk) * ChunkSize }

// NumChunks returns the number of chunks in the segment.
func (s Segment) NumChunks() int { return int(s.nchk) }

// Slice returns the sub-segment covering bytes [off, off+length) of s,
// rounded outward to chunk boundaries. Offsets beyond the segment are
// clamped.
func (s Segment) Slice(off, length int64) Segment {
	if off < 0 {
		off = 0
	}
	lo := off / ChunkSize
	hi := (off + length + ChunkSize - 1) / ChunkSize
	if lo > int64(s.nchk) {
		lo = int64(s.nchk)
	}
	if hi > int64(s.nchk) {
		hi = int64(s.nchk)
	}
	if hi < lo {
		hi = lo
	}
	return Segment{Name: s.Name, first: s.first + Chunk(lo), nchk: int32(hi - lo)}
}

// NUMAPolicy selects how physical pages (chunks) are mapped to NUMA nodes.
type NUMAPolicy int

const (
	// Interleave distributes chunks round-robin over all NUMA nodes
	// (numactl --interleave=all, the paper's default, §6.1).
	Interleave NUMAPolicy = iota
	// FirstTouch maps each chunk to the NUMA node of the worker that first
	// accesses it (the local allocation policy of §6.5).
	FirstTouch
	// Node0 maps every chunk to node 0 (serial runs with --localalloc).
	Node0
)

func (p NUMAPolicy) String() string {
	switch p {
	case Interleave:
		return "interleave"
	case FirstTouch:
		return "firsttouch"
	case Node0:
		return "node0"
	default:
		return fmt.Sprintf("NUMAPolicy(%d)", int(p))
	}
}

// Memory is the virtual heap: an allocator of segments plus the NUMA home
// of every chunk.
type Memory struct {
	policy   NUMAPolicy
	numNodes int
	nextChk  Chunk
	// home[c] is the NUMA node chunk c lives on; -1 if not yet touched
	// under FirstTouch.
	home []int8
}

// NewMemory creates an empty heap for a machine with the given number of
// NUMA nodes under the given placement policy.
func NewMemory(numNodes int, policy NUMAPolicy) *Memory {
	if numNodes < 1 {
		numNodes = 1
	}
	return &Memory{policy: policy, numNodes: numNodes}
}

// Alloc reserves a segment of at least `bytes` bytes (rounded up to whole
// chunks, minimum one chunk).
func (m *Memory) Alloc(name string, bytes int64) Segment {
	n := (bytes + ChunkSize - 1) / ChunkSize
	if n < 1 {
		n = 1
	}
	s := Segment{Name: name, first: m.nextChk, nchk: int32(n)}
	m.nextChk += Chunk(n)
	for i := int64(0); i < n; i++ {
		switch m.policy {
		case Interleave:
			m.home = append(m.home, int8(int(s.first+Chunk(i))%m.numNodes))
		case FirstTouch:
			m.home = append(m.home, -1)
		case Node0:
			m.home = append(m.home, 0)
		}
	}
	return s
}

// NumChunks returns the total number of allocated chunks.
func (m *Memory) NumChunks() int { return int(m.nextChk) }

// Home returns the NUMA node of chunk c for an access from node `from`.
// Under FirstTouch an untouched chunk is claimed by the accessing node.
func (m *Memory) Home(c Chunk, from int) int {
	h := m.home[c]
	if h < 0 {
		m.home[c] = int8(from)
		return from
	}
	return int(h)
}

// Policy returns the placement policy.
func (m *Memory) Policy() NUMAPolicy { return m.policy }

// AccessSpec describes one sequential sweep over (part of) a segment by a
// compute step: Passes full traversals of the chunk range.
type AccessSpec struct {
	Seg    Segment
	Passes int
}

// Pass returns an AccessSpec for n sequential passes over the whole
// segment.
func Pass(s Segment, n int) AccessSpec { return AccessSpec{Seg: s, Passes: n} }

// CacheSet is the LRU content of one cache: an ordered set of chunks with
// a capacity in chunks.
type CacheSet struct {
	cap int
	// pos maps each resident chunk to its node in nodes, a slab of at most
	// cap entries doubly linked by index in recency order. Nothing in it
	// is a pointer, so the garbage collector never scans a cache, and a
	// miss on a full set reuses the evicted chunk's node.
	pos   map[Chunk]int32
	nodes []lruNode
	head  int32 // most recently used, -1 when empty
	tail  int32 // least recently used, -1 when empty
}

type lruNode struct {
	c          Chunk
	prev, next int32
}

// NewCacheSet creates an LRU cache holding capacityBytes worth of chunks
// (minimum 1 chunk).
func NewCacheSet(capacityBytes int64) *CacheSet {
	n := int(capacityBytes / ChunkSize)
	if n < 1 {
		n = 1
	}
	return &CacheSet{cap: n, pos: make(map[Chunk]int32, n), nodes: make([]lruNode, 0, n),
		head: -1, tail: -1}
}

// Capacity returns the capacity in chunks.
func (cs *CacheSet) Capacity() int { return cs.cap }

// Len returns the number of resident chunks.
func (cs *CacheSet) Len() int { return len(cs.pos) }

// Contains reports whether chunk c is resident, without touching LRU order.
func (cs *CacheSet) Contains(c Chunk) bool {
	_, ok := cs.pos[c]
	return ok
}

func (cs *CacheSet) unlink(i int32) {
	n := &cs.nodes[i]
	if n.prev >= 0 {
		cs.nodes[n.prev].next = n.next
	} else {
		cs.head = n.next
	}
	if n.next >= 0 {
		cs.nodes[n.next].prev = n.prev
	} else {
		cs.tail = n.prev
	}
}

func (cs *CacheSet) pushFront(i int32) {
	n := &cs.nodes[i]
	n.prev, n.next = -1, cs.head
	if cs.head >= 0 {
		cs.nodes[cs.head].prev = i
	}
	cs.head = i
	if cs.tail < 0 {
		cs.tail = i
	}
}

// Touch accesses chunk c: returns true on a hit (and refreshes LRU order),
// or false on a miss, in which case c is installed, possibly evicting the
// least recently used chunk.
func (cs *CacheSet) Touch(c Chunk) bool {
	if i, ok := cs.pos[c]; ok {
		if cs.head != i {
			cs.unlink(i)
			cs.pushFront(i)
		}
		return true
	}
	var i int32
	if len(cs.pos) >= cs.cap {
		i = cs.tail
		cs.unlink(i)
		delete(cs.pos, cs.nodes[i].c)
	} else {
		i = int32(len(cs.nodes))
		cs.nodes = append(cs.nodes, lruNode{})
	}
	cs.nodes[i].c = c
	cs.pos[c] = i
	cs.pushFront(i)
	return false
}

// Flush empties the cache.
func (cs *CacheSet) Flush() {
	clear(cs.pos)
	cs.nodes = cs.nodes[:0]
	cs.head, cs.tail = -1, -1
}

// Hierarchy is the full simulated cache hierarchy: one CacheSet per cache
// in the machine's tree (the root/memory level has none), plus per-level
// miss counters.
type Hierarchy struct {
	machine *topology.Machine
	mem     *Memory
	costs   *CostModel
	// sets[level][index] is the CacheSet of C[level][index]; level 0 is nil.
	sets [][]*CacheSet
	// Misses[level] counts misses at cache level `level` (1..maxLevel),
	// i.e. accesses that had to go above that level. Misses at the private
	// (leaf) level correspond to the paper's L2 misses; misses at level 1
	// to its L3 misses.
	Misses []int64
	// Accesses counts all chunk accesses.
	Accesses int64
	// RemoteAccesses counts chunk fetches served by a remote NUMA node.
	RemoteAccesses int64
}

// NewHierarchy builds empty caches for every non-root cache of m.
func NewHierarchy(m *topology.Machine, mem *Memory, costs *CostModel) *Hierarchy {
	h := &Hierarchy{machine: m, mem: mem, costs: costs}
	h.sets = make([][]*CacheSet, m.NumLevels())
	for level := 1; level < m.NumLevels(); level++ {
		row := m.LevelCaches(level)
		h.sets[level] = make([]*CacheSet, len(row))
		for i, c := range row {
			h.sets[level][i] = NewCacheSet(c.Capacity)
		}
	}
	h.Misses = make([]int64, m.NumLevels())
	return h
}

// Set returns the CacheSet of C[level][index].
func (h *Hierarchy) Set(level, index int) *CacheSet { return h.sets[level][index] }

// Access simulates worker w touching chunk c and returns the virtual-time
// cost. The chunk is installed along the whole path from where it was
// found down to w's private cache, with LRU replacement at each level.
func (h *Hierarchy) Access(w int, c Chunk) float64 {
	h.Accesses++
	// Walk w's cache path from the private leaf up to the root, touching
	// each level. The first level that hits determines the cost; all
	// levels below (and the hit level itself, via Touch) now hold c.
	leaf := h.machine.LeafOf(w)
	hitLevel := 0 // 0 = memory
	for cc := leaf; cc.Level >= 1; cc = cc.Parent() {
		if h.sets[cc.Level][cc.Index].Touch(c) {
			hitLevel = cc.Level
			break
		}
		h.Misses[cc.Level]++
	}
	maxLevel := h.machine.MaxLevel()
	switch {
	case hitLevel == maxLevel:
		return h.costs.PrivateHitPerChunk
	case hitLevel > 0:
		return h.costs.SharedHitPerChunk
	default:
		home := h.mem.Home(c, h.machine.NUMANodeOfWorker(w))
		if home != h.machine.NUMANodeOfWorker(w) && h.machine.NumNUMANodes() > 1 {
			h.RemoteAccesses++
			return h.costs.RemotePerChunk
		}
		return h.costs.MemPerChunk
	}
}

// AccessRange simulates worker w sweeping the given access specs
// sequentially and returns the total cost.
func (h *Hierarchy) AccessRange(w int, specs []AccessSpec) float64 {
	var cost float64
	for _, sp := range specs {
		for p := 0; p < sp.Passes; p++ {
			for i := int32(0); i < sp.Seg.nchk; i++ {
				cost += h.Access(w, sp.Seg.first+Chunk(i))
			}
		}
	}
	return cost
}

// MissesAtPrivate returns the total misses at the private (leaf) cache
// level — the analogue of the paper's L2 miss counts (Fig. 18).
func (h *Hierarchy) MissesAtPrivate() int64 { return h.Misses[h.machine.MaxLevel()] }

// MissesAtShared returns the total misses at cache level 1 — the analogue
// of the paper's L3 miss counts (Fig. 18).
func (h *Hierarchy) MissesAtShared() int64 {
	if len(h.Misses) > 1 {
		return h.Misses[1]
	}
	return 0
}

// ResetCounters zeroes the miss/access counters without flushing content
// (used to exclude warm-up repetitions, as the paper does, §6.1).
func (h *Hierarchy) ResetCounters() {
	for i := range h.Misses {
		h.Misses[i] = 0
	}
	h.Accesses = 0
	h.RemoteAccesses = 0
}
