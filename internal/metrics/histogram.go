package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Log-linear bucket layout.
//
// A recorded value (an int64, by convention nanoseconds) lands in one of
// NumBuckets buckets: a linear region below 2^minShift, then sub linear
// sub-buckets per power-of-two octave up to 2^maxShift, then one overflow
// bucket. Within an octave every bucket has width 2^(octave-subShift), so
// the relative quantile error from bucketing is bounded by 1/sub (12.5%);
// the linear region bounds the absolute error by its bucket width instead
// (64ns). The layout is fixed at compile time so shards are plain arrays
// and recording is branch-light index arithmetic.
const (
	subShift = 3
	// sub is the number of linear sub-buckets per octave.
	sub = 1 << subShift
	// minShift bounds the linear region: values below 2^minShift (512ns)
	// use sub buckets of width 2^(minShift-subShift) (64ns).
	minShift = 9
	// maxShift bounds the log-linear region: values at or above 2^maxShift
	// (~18 minutes in nanoseconds) share the overflow bucket, whose upper
	// edge is reported from the exact tracked maximum.
	maxShift = 40
	// NumBuckets is the total bucket count of every histogram.
	NumBuckets = sub + (maxShift-minShift)*sub + 1
)

// bucketOf maps a recorded value to its bucket index.
//
//adws:hotpath
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < 1<<minShift {
		return int(v >> (minShift - subShift))
	}
	o := 63 - bits.LeadingZeros64(uint64(v))
	if o >= maxShift {
		return NumBuckets - 1
	}
	s := int(uint64(v)>>(uint(o)-subShift)) & (sub - 1)
	return sub + (o-minShift)*sub + s
}

// BucketUpper returns the exclusive upper edge of bucket i in recorded
// units (+Inf for the overflow bucket). Edges are monotonically
// increasing and bucket i covers [BucketUpper(i-1), BucketUpper(i)).
func BucketUpper(i int) float64 {
	if i >= NumBuckets-1 {
		return math.Inf(1)
	}
	if i < sub {
		return float64(int64(i+1) << (minShift - subShift))
	}
	i -= sub
	o := minShift + i/sub
	s := i % sub
	return float64(int64(1)<<o + int64(s+1)<<(o-subShift))
}

// histShard is one recorder's slice of a histogram. Each shard owns whole
// cache lines (layout pinned by pad_test.go) so concurrent recorders on
// different shards never false-share; within a shard only atomic adds and
// a CAS max race, which is safe from any number of goroutines.
type histShard struct {
	counts [NumBuckets]atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
	_      [40]byte
}

// record is the lock-free, allocation-free recording fast path.
//
//adws:hotpath
func (s *histShard) record(v int64) {
	s.counts[bucketOf(v)].Add(1)
	s.sum.Add(v)
	for {
		old := s.max.Load()
		if v <= old || s.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// Histogram is a sharded log-linear latency histogram. Recording takes no
// locks and allocates nothing: one atomic bucket increment, one atomic sum
// add, and a CAS-max. Callers that own a natural shard index (a worker ID)
// use Record for fully uncontended recording; callers without one use
// RecordAny, which rotates shards with one extra atomic add.
type Histogram struct {
	rr     atomic.Uint64
	shards []histShard
}

// NewStandaloneHistogram returns an unregistered, unnamed histogram, for
// tooling that wants the bucket layout and quantile machinery without a
// registry (e.g. the bench harness timing Record itself).
func NewStandaloneHistogram(shards int) *Histogram {
	if shards < 1 {
		shards = 1
	}
	return &Histogram{shards: make([]histShard, shards)}
}

// Record adds v (by convention nanoseconds) to the given shard.
// Concurrent calls are safe on any shards, including the same one.
//
//adws:hotpath
func (h *Histogram) Record(shard int, v int64) {
	h.shards[shard].record(v)
}

// RecordAny adds v to a rotating shard, for recorders with no natural
// shard index of their own.
//
//adws:hotpath
func (h *Histogram) RecordAny(v int64) {
	h.shards[h.rr.Add(1)%uint64(len(h.shards))].record(v)
}

// Snapshot is a merged point-in-time view of a histogram. Bucket counts
// are monotonic: a snapshot taken under concurrent recording may be
// mid-update (Count can trail Sum's adds by a few records), but no bucket
// or cumulative count ever decreases between successive snapshots.
type Snapshot struct {
	Counts [NumBuckets]int64
	Count  int64
	Sum    int64
	Max    int64
}

// Snapshot merges all shards. Safe to call while recorders run.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	for i := range h.shards {
		sh := &h.shards[i]
		for b := range sh.counts {
			if n := sh.counts[b].Load(); n != 0 {
				s.Counts[b] += n
				s.Count += n
			}
		}
		s.Sum += sh.sum.Load()
		if m := sh.max.Load(); m > s.Max {
			s.Max = m
		}
	}
	return s
}
