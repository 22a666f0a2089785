package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestBucketLayout checks the defining property of the bucket map: every
// value lands in the bucket whose half-open interval contains it, and the
// upper edges are strictly increasing.
func TestBucketLayout(t *testing.T) {
	for i := 1; i < NumBuckets; i++ {
		if !(BucketUpper(i) > BucketUpper(i-1)) {
			t.Fatalf("BucketUpper not increasing at %d: %g <= %g", i, BucketUpper(i), BucketUpper(i-1))
		}
	}
	check := func(v int64) {
		b := bucketOf(v)
		if b < 0 || b >= NumBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, b)
		}
		if float64(v) >= BucketUpper(b) {
			t.Fatalf("bucketOf(%d) = %d but value >= upper edge %g", v, b, BucketUpper(b))
		}
		if b > 0 && float64(v) < BucketUpper(b-1) {
			t.Fatalf("bucketOf(%d) = %d but value < lower edge %g", v, b, BucketUpper(b-1))
		}
	}
	// Exhaustive near every edge, plus extremes.
	for i := 0; i < NumBuckets-1; i++ {
		u := int64(BucketUpper(i))
		for _, v := range []int64{u - 1, u, u + 1} {
			if v >= 0 {
				check(v)
			}
		}
	}
	for _, v := range []int64{0, 1, 63, 64, 511, 512, 513, math.MaxInt64} {
		check(v)
	}
	if b := bucketOf(-5); b != 0 {
		t.Fatalf("negative value must clamp to bucket 0, got %d", b)
	}
	if b := bucketOf(math.MaxInt64); b != NumBuckets-1 {
		t.Fatalf("MaxInt64 must land in overflow bucket, got %d", b)
	}
}

// exactQuantile is the reference implementation: the rank-⌈q·n⌉ order
// statistic of the raw samples.
func exactQuantile(sorted []int64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return float64(sorted[rank-1])
}

// quantile estimates the q-quantile (0 < q ≤ 1) of s in recorded units
// the way a scraper does from the exposition: the upper edge of the
// bucket holding the rank-⌈q·n⌉ value, clamped to the tracked maximum
// (the <name>_max gauge). s must not be empty.
func quantile(s Snapshot, q float64) float64 {
	rank := max(int64(math.Ceil(q*float64(s.Count))), 1)
	var cum int64
	for i, n := range s.Counts {
		cum += n
		if cum >= rank {
			return math.Min(BucketUpper(i), float64(s.Max))
		}
	}
	return float64(s.Max)
}

// checkQuantiles records a sample set and asserts the bucket estimate
// never undershoots the exact quantile and overshoots by at most 1/8
// relative plus the 64ns linear-region bucket width.
func checkQuantiles(t *testing.T, name string, samples []int64) {
	t.Helper()
	h := NewStandaloneHistogram(4)
	for _, v := range samples {
		h.RecordAny(v)
	}
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	s := h.Snapshot()
	if s.Count != int64(len(samples)) {
		t.Fatalf("%s: snapshot count %d != %d recorded", name, s.Count, len(samples))
	}
	if s.Max != sorted[len(sorted)-1] {
		t.Fatalf("%s: snapshot max %d != exact %d", name, s.Max, sorted[len(sorted)-1])
	}
	for _, q := range []float64{0.01, 0.10, 0.50, 0.90, 0.99, 0.999, 1.0} {
		exact := exactQuantile(sorted, q)
		est := quantile(s, q)
		if est < exact {
			t.Errorf("%s: q=%g estimate %g undershoots exact %g", name, q, est, exact)
		}
		if bound := exact*1.125 + 64; est > bound {
			t.Errorf("%s: q=%g estimate %g exceeds error bound %g (exact %g)", name, q, est, bound, exact)
		}
	}
}

func TestQuantileErrorBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))

	// Bimodal: a fast mode near 800ns and a slow mode near 40ms — the
	// shape where a mean hides everything and p50 vs p99 straddle the gap.
	bimodal := make([]int64, 0, 20000)
	for i := 0; i < 18000; i++ {
		bimodal = append(bimodal, 700+rng.Int63n(200))
	}
	for i := 0; i < 2000; i++ {
		bimodal = append(bimodal, 38_000_000+rng.Int63n(4_000_000))
	}
	checkQuantiles(t, "bimodal", bimodal)

	// Heavy tail: Pareto-like, x = scale / U^(1/alpha) with alpha ~1.2,
	// spanning six orders of magnitude.
	heavy := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		u := rng.Float64()
		if u < 1e-9 {
			u = 1e-9
		}
		heavy = append(heavy, int64(1000/math.Pow(u, 1/1.2)))
	}
	checkQuantiles(t, "heavy-tail", heavy)

	// Degenerate shapes that stress rank arithmetic.
	checkQuantiles(t, "constant", []int64{5000, 5000, 5000, 5000})
	checkQuantiles(t, "single", []int64{123456})
	checkQuantiles(t, "zeros", []int64{0, 0, 0})
}

// TestOverflowBucketUsesMax checks that a value past the log-linear range
// lands in the overflow bucket and is reported from the exact CAS-tracked
// maximum, which the <name>_max gauge renders, not +Inf.
func TestOverflowBucketUsesMax(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "", 1)
	huge := int64(1) << 45
	h.Record(0, huge)
	if s := h.Snapshot(); s.Counts[NumBuckets-1] != 1 || s.Max != huge {
		t.Fatalf("overflow bucket %d, max %d; want 1, %d", s.Counts[NumBuckets-1], s.Max, huge)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseText(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := fams[1].Sample(); fams[1].Name != "test_seconds_max" || got != float64(huge)/1e9 {
		t.Fatalf("%s = %g, want test_seconds_max = %g", fams[1].Name, got, float64(huge)/1e9)
	}
}

// TestShardMergeConcurrent hammers all shards from concurrent recorders
// while a reader snapshots, checking (under -race) that recording is safe
// and that successive snapshots are monotonic: no per-bucket cumulative
// count ever decreases, and Count/Sum only grow.
func TestShardMergeConcurrent(t *testing.T) {
	const (
		workers       = 8
		perWorker     = 50_000
		totalExpected = workers * perWorker
	)
	h := NewStandaloneHistogram(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				v := rng.Int63n(1 << 30)
				if w%2 == 0 {
					h.Record(w, v)
				} else {
					h.RecordAny(v)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	prev := Snapshot{}
	checkMono := func(cur Snapshot) {
		t.Helper()
		if cur.Count < prev.Count {
			t.Fatalf("snapshot count decreased: %d -> %d", prev.Count, cur.Count)
		}
		var pc, cc int64
		for i := 0; i < NumBuckets; i++ {
			pc += prev.Counts[i]
			cc += cur.Counts[i]
			if cc < pc {
				t.Fatalf("cumulative bucket %d decreased: %d -> %d", i, pc, cc)
			}
		}
		if cur.Max < prev.Max {
			t.Fatalf("max decreased: %d -> %d", prev.Max, cur.Max)
		}
		prev = cur
	}
	for {
		select {
		case <-done:
			final := h.Snapshot()
			checkMono(final)
			if final.Count != totalExpected {
				t.Fatalf("final count %d, want %d", final.Count, totalExpected)
			}
			var sum int64
			for _, n := range final.Counts {
				sum += n
			}
			if sum != totalExpected {
				t.Fatalf("bucket sum %d, want %d", sum, totalExpected)
			}
			return
		default:
			checkMono(h.Snapshot())
		}
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewStandaloneHistogram(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(0, int64(i)%1_000_000)
	}
}

func BenchmarkHistogramRecordAny(b *testing.B) {
	h := NewStandaloneHistogram(8)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		var i int64
		for pb.Next() {
			i++
			h.RecordAny(i % 1_000_000)
		}
	})
}
