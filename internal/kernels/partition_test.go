package kernels

import (
	"fmt"
	"slices"
	"testing"

	"github.com/parlab/adws"
)

// TestPartitionMatchesStableReference checks Partition against a naive
// stable partition — the left elements, then the right ones, each in input
// order — around every block boundary, for all-left, all-right and mixed
// predicates, on 1- and 2-worker pools. Above one block it must also spawn
// exactly one counting and one scattering task per block.
func TestPartitionMatchesStableReference(t *testing.T) {
	const bs = 16
	preds := map[string]func(v int) bool{
		"all-left":  func(int) bool { return true },
		"all-right": func(int) bool { return false },
		"mixed":     func(v int) bool { return v%3 != 1 },
	}
	for _, s := range []adws.Scheduler{adws.ADWS, adws.WorkStealing} {
		for _, workers := range []int{1, 2} {
			p, err := adws.NewPool(adws.WithScheduler(s), adws.WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(p.Close)
			for _, n := range []int{0, 1, bs - 1, bs, bs + 1, 5*bs + 3} {
				for name, left := range preds {
					t.Run(fmt.Sprintf("%v/w%d/n%d/%s", s, workers, n, name), func(t *testing.T) {
						src := make([]int, n)
						for i := range src {
							src[i] = (i * 7919) % 101
						}
						var want []int
						wantNL := 0
						for _, side := range []bool{true, false} {
							for _, v := range src {
								if left(v) == side {
									want = append(want, v)
								}
							}
							if side {
								wantNL = len(want)
							}
						}
						dst := make([]int, n)
						tasks := p.Stats().Tasks
						var nl int
						p.Run(func(c *adws.Ctx) {
							nl = Partition(c, n, bs, adws.GroupHint{Work: float64(n)},
								func(lo, hi int) (cnt int) {
									for _, v := range src[lo:hi] {
										if left(v) {
											cnt++
										}
									}
									return cnt
								},
								func(lo, hi, l, r int) {
									for _, v := range src[lo:hi] {
										if left(v) {
											dst[l] = v
											l++
										} else {
											dst[r] = v
											r++
										}
									}
								})
						})
						if nl != wantNL || !slices.Equal(dst, want) {
							t.Fatalf("nl = %d, dst = %v; want %d, %v", nl, dst, wantNL, want)
						}
						spawned := p.Stats().Tasks - tasks - 1 // minus the root
						if nb := (n + bs - 1) / bs; n > bs && spawned != int64(2*nb) {
							t.Errorf("spawned %d tasks, want %d", spawned, 2*nb)
						}
					})
				}
			}
		}
	}
}
