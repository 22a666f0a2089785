package runtime

import (
	"fmt"
	"testing"
	"time"

	"github.com/parlab/adws/internal/topology"
)

// Idle/wakeup-path microbenchmarks. These pin the cost of the Spawn/Wait
// and task-completion fast paths (which must not take any global lock when
// no worker is parked) and the submit latency into a fully parked pool.
// Before/after numbers for the per-worker parker live in EXPERIMENTS.md.

var benchWorkerCounts = []int{1, 4, 8}

func newBenchPool(b testing.TB, pol Policy, workers int) *Pool {
	b.Helper()
	p := NewPool(Config{
		Machine: topology.Flat(workers, 32<<20, 1<<20),
		Policy:  pol,
		Seed:    42,
	})
	b.Cleanup(p.Close)
	return p
}

// spawnTree forks an empty binary tree of the given depth: pure tasking
// overhead, no leaf work. With depth 9 one op spawns 2^10-2 = 1022 tasks.
func spawnTree(c *Ctx, depth int) {
	if depth == 0 {
		return
	}
	g := c.Group(GroupHint{Work: 2})
	g.Spawn(1, func(c *Ctx) { spawnTree(c, depth-1) })
	g.Spawn(1, func(c *Ctx) { spawnTree(c, depth-1) })
	g.Wait()
}

// BenchmarkSpawnTree is the fine-grained spawn microbenchmark of the
// idle-path acceptance criterion: an empty fork-join tree where scheduler
// synchronization is the whole cost.
func BenchmarkSpawnTree(b *testing.B) {
	const depth = 9
	for _, pol := range []Policy{WS, ADWS} {
		for _, workers := range benchWorkerCounts {
			b.Run(fmt.Sprintf("%v/w%d", pol, workers), func(b *testing.B) {
				p := newBenchPool(b, pol, workers)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.Run(func(c *Ctx) { spawnTree(c, depth) })
				}
				b.ReportMetric(float64(int(1)<<(depth+1)-2), "tasks/op")
			})
		}
	}
}

// benchFib is a naive fork-join Fibonacci with no sequential cutoff below
// fibCutoff: spawn-heavy with slightly irregular subtree sizes.
func benchFib(c *Ctx, n int, out *int64) {
	if n < 2 {
		*out = int64(n)
		return
	}
	var a, b int64
	g := c.Group(GroupHint{Work: float64(int(1) << n)})
	g.Spawn(float64(int(1)<<(n-1)), func(c *Ctx) { benchFib(c, n-1, &a) })
	g.Spawn(float64(int(1)<<(n-2)), func(c *Ctx) { benchFib(c, n-2, &b) })
	g.Wait()
	*out = a + b
}

func BenchmarkSpawnFib(b *testing.B) {
	const n = 15 // fib(15) = 610; ~1973 tasks per op
	for _, pol := range []Policy{WS, ADWS} {
		for _, workers := range benchWorkerCounts {
			b.Run(fmt.Sprintf("%v/w%d", pol, workers), func(b *testing.B) {
				p := newBenchPool(b, pol, workers)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var out int64
					p.Run(func(c *Ctx) { benchFib(c, n, &out) })
					if out != 610 {
						b.Fatalf("fib(%d) = %d", n, out)
					}
				}
			})
		}
	}
}

// benchQsort is a spawn-heavy quicksort with a fine sequential cutoff, the
// paper's canonical divide-and-conquer kernel reduced to its scheduling
// skeleton (kernels.Quicksort lives above this package and cannot be
// imported here).
func benchQsort(c *Ctx, a []int32) {
	if len(a) <= 32 {
		insertionSort(a)
		return
	}
	p := partition(a)
	g := c.Group(GroupHint{Work: float64(len(a))})
	lo, hi := a[:p], a[p+1:]
	g.Spawn(float64(len(lo)), func(c *Ctx) { benchQsort(c, lo) })
	g.Spawn(float64(len(hi)), func(c *Ctx) { benchQsort(c, hi) })
	g.Wait()
}

func insertionSort(a []int32) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func partition(a []int32) int {
	mid := len(a) / 2
	if a[mid] < a[0] {
		a[mid], a[0] = a[0], a[mid]
	}
	if a[len(a)-1] < a[mid] {
		a[len(a)-1], a[mid] = a[mid], a[len(a)-1]
		if a[mid] < a[0] {
			a[mid], a[0] = a[0], a[mid]
		}
	}
	a[mid], a[len(a)-1] = a[len(a)-1], a[mid]
	pivot := a[len(a)-1]
	i := 0
	for j := 0; j < len(a)-1; j++ {
		if a[j] < pivot {
			a[i], a[j] = a[j], a[i]
			i++
		}
	}
	a[i], a[len(a)-1] = a[len(a)-1], a[i]
	return i
}

func BenchmarkSpawnQuicksort(b *testing.B) {
	const size = 1 << 14
	master := make([]int32, size)
	rng := uint64(1)
	for i := range master {
		rng = rng*6364136223846793005 + 1442695040888963407
		master[i] = int32(rng >> 33)
	}
	for _, pol := range []Policy{WS, ADWS} {
		for _, workers := range benchWorkerCounts {
			b.Run(fmt.Sprintf("%v/w%d", pol, workers), func(b *testing.B) {
				p := newBenchPool(b, pol, workers)
				data := make([]int32, size)
				b.SetBytes(size * 4)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(data, master)
					p.Run(func(c *Ctx) { benchQsort(c, data) })
				}
			})
		}
	}
}

// BenchmarkParkedSubmit measures the submit-to-completion latency of a
// trivial root job on a pool whose workers are (mostly) parked: the cost
// of waking exactly the claiming worker.
func BenchmarkParkedSubmit(b *testing.B) {
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			p := newBenchPool(b, ADWS, workers)
			// Let every worker run dry and park before measuring.
			time.Sleep(5 * time.Millisecond)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j, err := p.SubmitRoot(func(c *Ctx) {}, 0, 1)
				if err != nil {
					b.Fatal(err)
				}
				<-j.Done()
			}
		})
	}
}
