package kernels

import (
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/parlab/adws"
	"github.com/parlab/adws/internal/sched"
)

// balanceCase is one of the two kernels whose partition barriers sit inside
// a cross-worker task: a body over fresh random input of n elements.
type balanceCase struct {
	name string
	n    int
	body func(rng *sched.RNG, n int) func(*adws.Ctx)
}

var balanceCases = []balanceCase{
	{"quicksort", 1 << 20, func(rng *sched.RNG, n int) func(*adws.Ctx) {
		data := make([]float64, n)
		for i := range data {
			data[i] = rng.Float64()*2000 - 1000
		}
		return QuicksortBody(data)
	}},
	{"kdtree", 300_000, func(rng *sched.RNG, n int) func(*adws.Ctx) {
		pts := make([]KDPoint, n)
		for i := range pts {
			pts[i] = KDPoint{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		}
		var root *KDNode
		return KDTreeBody(pts, &root)
	}},
}

func twoWorkerPool(t *testing.T, s adws.Scheduler, opts ...adws.Option) *adws.Pool {
	t.Helper()
	p, err := adws.NewPool(append([]adws.Option{adws.WithScheduler(s), adws.WithWorkers(2)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// TestHelpingWaitRespectsDepthFloor checks the depth floor of helping waits
// as a property of the trace: under single-level ADWS no task begins on a
// worker whose innermost open wait is for deeper children. Before the floor
// bound local pops, every Quicksort and kd-tree run at two workers had
// several such tasks — the left subtree run nested under the right
// subtree's partition barrier — holding the worker for half the run.
func TestHelpingWaitRespectsDepthFloor(t *testing.T) {
	for _, k := range balanceCases {
		rng := sched.NewRNG(7, 0)
		for run := 0; run < 3; run++ {
			p := twoWorkerPool(t, adws.ADWS, adws.WithTracing(1<<20))
			p.Run(k.body(rng, k.n/4))
			s := p.Tracer().Summarize()
			if s.Drops > 0 {
				t.Fatalf("%s run %d: %d trace events dropped", k.name, run, s.Drops)
			}
			if s.WaitCount == 0 || s.Migrations == 0 {
				t.Fatalf("%s run %d: %d waits, %d migrations: the run never crossed workers", k.name, run, s.WaitCount, s.Migrations)
			}
			if s.ShallowHelps != 0 {
				t.Errorf("%s run %d: %d tasks began under a wait for deeper children (%.2f ms)",
					k.name, run, s.ShallowHelps, float64(s.ShallowHelpTime)/1e6)
			}
		}
	}
}

// TestKernelBalanceSmoke is the gate on kernels/adws_ws_ratio: with
// ADWS_BENCH_SMOKE=1 (set by scripts/check.sh) it runs Quicksort and the
// kd-tree build at two workers under ADWS and WS alternately, each pair on
// a fresh input, and fails if the median of all the paired ADWS : WS
// wall-time ratios exceeds 1.20. With the left subtree buried under the
// right one's barrier it reads 1.46–1.53; with the depth floor 1.07–1.14
// (EXPERIMENTS.md, "The idle worker"). The per-kernel medians are logged,
// not gated: the kd-tree build takes 20 ms, and its median of 21 pairs
// alone ranges over 1.09–1.20 from run to run on a two-CPU host.
func TestKernelBalanceSmoke(t *testing.T) {
	if os.Getenv("ADWS_BENCH_SMOKE") != "1" {
		t.Skip("set ADWS_BENCH_SMOKE=1 to run the ADWS : WS kernel balance gate")
	}
	if runtime.NumCPU() < 2 {
		t.Skip("needs two CPUs: one worker idle is what the gate measures")
	}
	const pairs = 21
	pools := map[adws.Scheduler]*adws.Pool{
		adws.ADWS:         twoWorkerPool(t, adws.ADWS),
		adws.WorkStealing: twoWorkerPool(t, adws.WorkStealing),
	}
	median := func(v []float64) float64 {
		sort.Float64s(v)
		return v[len(v)/2]
	}
	var all []float64
	for _, k := range balanceCases {
		// Pair i sorts (builds over) input i under both policies.
		timed := func(s adws.Scheduler, i int) float64 {
			body := k.body(sched.NewRNG(11, i), k.n)
			runtime.GC() // not in the middle of a 20 ms run
			start := time.Now()
			pools[s].Run(body)
			return float64(time.Since(start))
		}
		timed(adws.WorkStealing, 0) // warm-up
		timed(adws.ADWS, 0)
		ratios := make([]float64, pairs)
		for i := range ratios {
			var a, b float64
			if i%2 == 0 {
				a = timed(adws.ADWS, i)
				b = timed(adws.WorkStealing, i)
			} else {
				b = timed(adws.WorkStealing, i)
				a = timed(adws.ADWS, i)
			}
			ratios[i] = a / b
		}
		all = append(all, ratios...)
		t.Logf("%s n=%d w2, %d alternated pairs: ADWS : WS median %.3f (min %.3f, max %.3f)",
			k.name, k.n, pairs, median(ratios), ratios[0], ratios[pairs-1])
	}
	if m := median(all); m > 1.20 {
		t.Errorf("ADWS : WS wall-time ratio %.3f over %d pairs exceeds the 1.20 gate", m, len(all))
	} else {
		t.Logf("all %d pairs: ADWS : WS median %.3f", len(all), m)
	}
}
