package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/parlab/adws"
	"github.com/parlab/adws/internal/kernels"
	"github.com/parlab/adws/internal/sched"
)

// kernelCase is one kernel with its seeded master input, the working copy
// a run consumes, and the check of what the run produced.
type kernelCase struct {
	name   string
	regen  func()               // draws a new master input from the run's generator; untimed
	reset  func()               // fresh copy of the master input; untimed
	body   func(c *adws.Ctx)    // the root task handed to Pool.Run
	verify func() error         // untimed
	times  map[string][]float64 // pool name -> ns per repeat
	tasks  int64
}

type kernelsBench struct {
	cfg   config
	pools map[string]*adws.Pool // "adws", "ws" at wn workers; "serial" = ADWS at one worker
	order []string              // pools measured in each repeat
	cases []*kernelCase
	pass  map[string][]float64 // pool name -> ns per pass (all four kernels)
	cpu   map[string][]float64 // pool name -> CPU ns per pass
}

// newKernels builds the inputs from the seed, starts the pools and runs
// one untimed pass. withSerial adds the one-worker pool the traced run
// uses for kernels.<k>.serial_ms.
func newKernels(cfg config, withSerial bool) (*kernelsBench, error) {
	b := &kernelsBench{cfg: cfg, pools: map[string]*adws.Pool{}, pass: map[string][]float64{}, cpu: map[string][]float64{}}
	b.order = []string{"adws", "ws"}
	if withSerial {
		b.order = append(b.order, "serial")
	}
	for _, name := range b.order {
		workers, policy := cfg.wn, name
		if name == "serial" {
			workers, policy = 1, "adws"
		}
		p, err := newPool(cfg, policy, workers)
		if err != nil {
			b.close()
			return nil, fmt.Errorf("kernels: %s pool: %w", name, err)
		}
		b.pools[name] = p
	}
	sz := cfg.size
	rng := sched.NewRNG(cfg.seed^0xBE7C4, 0)
	b.cases = []*kernelCase{
		quicksortCase(rng, sz.quicksortN),
		matmulCase(rng, sz.matmulN),
		heat2dCase(rng, sz.heatN, sz.heatIters),
		kdtreeCase(rng, sz.kdtreeN),
	}
	for _, k := range b.cases {
		k.times = map[string][]float64{}
		k.regen()
		k.reset()
		b.pools["adws"].Run(k.body)
		if err := k.verify(); err != nil {
			b.close()
			return nil, fmt.Errorf("kernels: warm-up: %w", err)
		}
	}
	return b, nil
}

func (b *kernelsBench) close() {
	for _, p := range b.pools {
		p.Close()
	}
}

func (b *kernelsBench) run(spans *spanLog, epoch time.Time) result {
	res := newResult()
	for r := 0; r < b.cfg.size.kernelRepeats; r++ {
		// Every repeat sorts, multiplies and builds over a new input, the
		// same for all pools: how well ADWS balances two workers depends on
		// the pivots the data yields (one input's ADWS time can be 1.0 or
		// 1.5 times its WS time), and a run should report the kernel, not
		// the luck of one draw.
		for _, k := range b.cases {
			k.regen()
		}
		for i := range b.order {
			name := b.order[(r+i)%len(b.order)]
			pool := b.pools[name]
			var pass, cpu time.Duration
			for _, k := range b.cases {
				k.reset()
				before := pool.Stats()
				cpu0 := cpuTime()
				t0 := time.Now()
				pool.Run(k.body)
				d := time.Since(t0)
				cpu += cpuTime() - cpu0
				if name == "adws" {
					k.tasks = pool.Stats().Tasks - before.Tasks
				}
				pass += d
				k.times[name] = append(k.times[name], float64(d))
				res.attempted++
				if err := k.verify(); err != nil {
					res.fail(1, "kernels %s on %s: %v", k.name, name, err)
				}
				if spans != nil {
					spans.add(span{Name: "run." + k.name + "." + name, Op: int64(res.attempted), Parent: -1,
						Start: int64(t0.Sub(epoch)), End: int64(t0.Sub(epoch) + d),
						Counts: statsDelta(before, pool.Stats())})
				}
			}
			b.pass[name] = append(b.pass[name], float64(pass))
			b.cpu[name] = append(b.cpu[name], float64(cpu))
		}
	}
	adwsPass := b.pass["adws"]
	// One op is one kernel run; a pass is one run of each kernel.
	total := sum(adwsPass)
	runs := float64(len(adwsPass) * len(b.cases))
	res.e2e["ops_per_s"] = runs / (total / 1e9)
	res.e2e["op_p50_us"] = median(adwsPass) / float64(len(b.cases)) / 1e3
	// Ratios of totals, not medians of per-repeat ratios: the repeats differ
	// in input, one input in five or so balances badly under ADWS (ratio
	// 1.4 against 1.05-1.15 for the rest), and a median over thirty draws of
	// such a mixture moves with how many of the bad ones it happened to get.
	res.e2e["adws_ws_ratio"] = total / sum(b.pass["ws"])
	res.e2e["adws_ws_cpu_ratio"] = sum(b.cpu["adws"]) / sum(b.cpu["ws"])
	res.e2e["cpu_us_per_op"] = median(b.cpu["adws"]) / float64(len(b.cases)) / 1e3
	for _, k := range b.cases {
		par := median(k.times["adws"])
		res.layer["kernels."+k.name+".parallel_ms"] = par / 1e6
		res.layer["kernels."+k.name+".tasks"] = float64(k.tasks)
		if ser, ok := k.times["serial"]; ok {
			res.layer["kernels."+k.name+".serial_ms"] = median(ser) / 1e6
			res.layer["kernels."+k.name+".speedup_wn"] = median(ser) / par
		}
	}
	return res
}

func quicksortCase(rng *sched.RNG, n int) *kernelCase {
	master := make([]float64, n)
	var sum float64
	data := make([]float64, n)
	return &kernelCase{
		name: "quicksort",
		regen: func() {
			sum = 0
			for i := range master {
				master[i] = rng.Float64()*2e6 - 1e6
				sum += master[i]
			}
		},
		reset: func() { copy(data, master) },
		body:  kernels.QuicksortBody(data),
		verify: func() error {
			if !sort.Float64sAreSorted(data) {
				return fmt.Errorf("output not sorted")
			}
			var got float64
			for _, v := range data {
				got += v
			}
			// Sorted order changes the rounding of the sum, not its value.
			if math.Abs(got-sum) > 1e-6*float64(n) {
				return fmt.Errorf("output sums to %v, input to %v: elements lost", got, sum)
			}
			return nil
		},
	}
}

func matmulCase(rng *sched.RNG, n int) *kernelCase {
	A, B, C := kernels.NewMatrix(n), kernels.NewMatrix(n), kernels.NewMatrix(n)
	probes := make([][2]int, 8)
	return &kernelCase{
		name: "matmul",
		regen: func() {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					A.Set(i, j, float32(rng.Float64()-0.5))
					B.Set(i, j, float32(rng.Float64()-0.5))
				}
			}
			for i := range probes {
				probes[i] = [2]int{rng.Intn(n), rng.Intn(n)}
			}
		},
		reset: func() { clear(C.Data) }, // the kernel accumulates into C
		body:  kernels.MatMulBody(C, A, B),
		verify: func() error {
			for _, p := range probes {
				var want float32
				for k := 0; k < n; k++ {
					want += A.At(p[0], k) * B.At(k, p[1])
				}
				if got := C.At(p[0], p[1]); math.Abs(float64(got-want)) > 1e-2 {
					return fmt.Errorf("C[%d][%d] = %v, want %v", p[0], p[1], got, want)
				}
			}
			return nil
		},
	}
}

func heat2dCase(rng *sched.RNG, n, iters int) *kernelCase {
	master, src, dst := kernels.NewGrid(n), kernels.NewGrid(n), kernels.NewGrid(n)
	var heat float64
	var out *kernels.Grid
	return &kernelCase{
		name: "heat2d",
		regen: func() {
			clear(master.Data)
			heat = 0
			for i := 0; i < 64; i++ {
				v := 100 + 900*rng.Float64()
				x, y := rng.Intn(n), rng.Intn(n)
				heat += v - master.At(x, y)
				master.Set(x, y, v)
			}
		},
		reset: func() { copy(src.Data, master.Data); clear(dst.Data) },
		body:  kernels.Heat2DBody(src, dst, iters, &out),
		verify: func() error {
			// The five-point average with reflecting edges conserves heat.
			var got float64
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					got += out.At(i, j)
				}
			}
			if math.Abs(got-heat) > 1e-6*heat {
				return fmt.Errorf("total heat %v after %d iterations, want %v", got, iters, heat)
			}
			return nil
		},
	}
}

func kdtreeCase(rng *sched.RNG, n int) *kernelCase {
	master := make([]kernels.KDPoint, n)
	pts := make([]kernels.KDPoint, n)
	var root *kernels.KDNode
	return &kernelCase{
		name: "kdtree",
		regen: func() {
			for i := range master {
				master[i] = kernels.KDPoint{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
			}
		},
		reset: func() { copy(pts, master); root = nil },
		body:  kernels.KDTreeBody(pts, &root),
		verify: func() error {
			if root == nil || root.Lo != 0 || root.Hi != n {
				return fmt.Errorf("root does not span the %d points", n)
			}
			return kdCheck(root, pts)
		},
	}
}

// kdCheck verifies that every split plane separates its children's points
// and that the leaves tile the node's range.
func kdCheck(n *kernels.KDNode, pts []kernels.KDPoint) error {
	if n.Axis < 0 {
		return nil
	}
	if n.Left == nil || n.Right == nil || n.Left.Lo != n.Lo || n.Left.Hi != n.Right.Lo || n.Right.Hi != n.Hi {
		return fmt.Errorf("node [%d,%d) is not tiled by its children", n.Lo, n.Hi)
	}
	coord := func(p kernels.KDPoint) float64 { return [3]float64{p.X, p.Y, p.Z}[n.Axis] }
	// Probing both ends of each child is enough to catch a misplaced
	// partition without a second pass over every point at every level.
	for _, i := range []int{n.Left.Lo, n.Left.Hi - 1} {
		if coord(pts[i]) >= n.Split {
			return fmt.Errorf("left child of [%d,%d) holds a point at or beyond the split", n.Lo, n.Hi)
		}
	}
	for _, i := range []int{n.Right.Lo, n.Right.Hi - 1} {
		if coord(pts[i]) < n.Split {
			return fmt.Errorf("right child of [%d,%d) holds a point before the split", n.Lo, n.Hi)
		}
	}
	if err := kdCheck(n.Left, pts); err != nil {
		return err
	}
	return kdCheck(n.Right, pts)
}
