package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/parlab/adws"
)

const (
	treeDepth = 12
	treeTasks = 1<<(treeDepth+1) - 2 // 8190 spawned tasks per op
	fibN      = 22
	fibValue  = 17711
	fibTasks  = 57312 // spawned tasks of cutoff-free fib(22): calls - 1
)

// spawnTree forks an empty binary tree: pure tasking overhead.
func spawnTree(c *adws.Ctx, depth int) {
	if depth == 0 {
		return
	}
	g := c.Group(adws.GroupHint{Work: 2})
	g.Spawn(1, func(c *adws.Ctx) { spawnTree(c, depth-1) })
	g.Spawn(1, func(c *adws.Ctx) { spawnTree(c, depth-1) })
	g.Wait()
}

// spawnFib is fork-join Fibonacci without a sequential cutoff: spawn-heavy
// with irregular subtree sizes and exact work hints.
func spawnFib(c *adws.Ctx, n int, out *int64) {
	if n < 2 {
		*out = int64(n)
		return
	}
	var a, b int64
	g := c.Group(adws.GroupHint{Work: float64(int(1) << n)})
	g.Spawn(float64(int(1)<<(n-1)), func(c *adws.Ctx) { spawnFib(c, n-1, &a) })
	g.Spawn(float64(int(1)<<(n-2)), func(c *adws.Ctx) { spawnFib(c, n-2, &b) })
	g.Wait()
	*out = a + b
}

// spawnConfig is one (policy, worker count) pool of the spawn workload.
type spawnConfig struct {
	policy string // "adws" or "ws"
	width  string // "w1" or "wn"
	pool   *adws.Pool
	treeNS []float64  // per repeat: ns per task on the tree
	fibNS  []float64  // per repeat: ns per task on fib
	opNS   []float64  // per repeat: median duration of one tree op
	cpuNS  []float64  // per repeat: CPU ns per tree op
	counts adws.Stats // summed over the timed tree blocks only
}

type spawnBench struct {
	cfg     config
	configs []*spawnConfig // adws/w1, ws/w1, adws/wn, ws/wn
}

func schedulerOf(policy string) adws.Scheduler {
	if policy == "adws" {
		return adws.ADWS
	}
	return adws.WorkStealing
}

// newPool starts a pool of the facade's default configuration (recorder,
// watchdog and metrics on, as users get it) under the named policy.
func newPool(cfg config, policy string, workers int, extra ...adws.Option) (*adws.Pool, error) {
	return adws.NewPool(append([]adws.Option{adws.WithScheduler(schedulerOf(policy)),
		adws.WithWorkers(workers), adws.WithSeed(cfg.seed)}, extra...)...)
}

// newSpawn starts the four pools and runs one untimed repeat on each.
func newSpawn(cfg config) (*spawnBench, error) {
	b := &spawnBench{cfg: cfg}
	for _, width := range []string{"w1", "wn"} {
		for _, policy := range []string{"adws", "ws"} {
			workers := 1
			if width == "wn" {
				workers = cfg.wn
			}
			p, err := newPool(cfg, policy, workers)
			if err != nil {
				b.close()
				return nil, fmt.Errorf("spawn: %s/%s pool: %w", policy, width, err)
			}
			b.configs = append(b.configs, &spawnConfig{policy: policy, width: width, pool: p})
			for i := 0; i < cfg.size.spawnTreeOps; i++ {
				p.Run(func(c *adws.Ctx) { spawnTree(c, treeDepth) })
			}
		}
	}
	return b, nil
}

func (b *spawnBench) close() {
	for _, c := range b.configs {
		c.pool.Close()
	}
}

func (b *spawnBench) config(policy, width string) *spawnConfig {
	for _, c := range b.configs {
		if c.policy == policy && c.width == width {
			return c
		}
	}
	panic("spawn: no config " + policy + "/" + width)
}

// run measures every config in each repeat, rotating which goes first, so
// that drift in host speed hits all four alike and the per-repeat ratios
// are paired.
func (b *spawnBench) run(spans *spanLog, epoch time.Time) result {
	sz := b.cfg.size
	res := newResult()
	opSeq := int64(0)
	for r := 0; r < sz.spawnRepeats; r++ {
		for k := range b.configs {
			c := b.configs[(r+k)%len(b.configs)]
			before := c.pool.Stats()
			cpu0 := cpuTime()
			var block time.Duration
			ops := make([]float64, 0, sz.spawnTreeOps)
			for i := 0; i < sz.spawnTreeOps; i++ {
				t0 := time.Now()
				c.pool.Run(func(ctx *adws.Ctx) { spawnTree(ctx, treeDepth) })
				d := time.Since(t0)
				block += d
				ops = append(ops, float64(d))
				if spans != nil {
					// A traced op also reads the pool's counters, which
					// allocates: that is the tracing overhead reported.
					opSeq++
					spans.add(span{Name: "run." + c.policy + "." + c.width, Op: opSeq,
						Parent: -1, Start: int64(t0.Sub(epoch)), End: int64(t0.Sub(epoch) + d),
						Counts: statsDelta(before, c.pool.Stats())})
				}
			}
			c.cpuNS = append(c.cpuNS, float64(cpuTime()-cpu0)/float64(sz.spawnTreeOps))
			after := c.pool.Stats()
			c.opNS = append(c.opNS, median(ops))
			c.treeNS = append(c.treeNS, float64(block)/float64(sz.spawnTreeOps*treeTasks))
			res.attempted += sz.spawnTreeOps
			// Gate: the scheduler ran exactly the tasks the tree has (the
			// root task of each op is counted too).
			if got, want := after.Tasks-before.Tasks, int64(sz.spawnTreeOps*(treeTasks+1)); got != want {
				res.fail(sz.spawnTreeOps, "spawn %s/%s: %d tasks executed, want %d", c.policy, c.width, got, want)
			}
			c.counts.Steals += after.Steals - before.Steals
			c.counts.StealAttempts += after.StealAttempts - before.StealAttempts
			c.counts.Migrations += after.Migrations - before.Migrations
			c.counts.Parks += after.Parks - before.Parks
			c.counts.Wakes += after.Wakes - before.Wakes
			c.counts.BusyNS += after.BusyNS - before.BusyNS
			c.counts.IdleNS += after.IdleNS - before.IdleNS
			if c.width == "w1" {
				var fib time.Duration
				for i := 0; i < sz.spawnFibOps; i++ {
					var out int64
					t0 := time.Now()
					c.pool.Run(func(ctx *adws.Ctx) { spawnFib(ctx, fibN, &out) })
					fib += time.Since(t0)
					res.attempted++
					if out != fibValue {
						res.fail(1, "spawn %s/%s: fib(%d) = %d, want %d", c.policy, c.width, fibN, out, fibValue)
					}
				}
				c.fibNS = append(c.fibNS, float64(fib)/float64(sz.spawnFibOps*fibTasks))
			}
		}
	}
	aw1, ww1 := b.config("adws", "w1"), b.config("ws", "w1")
	awn, wwn := b.config("adws", "wn"), b.config("ws", "wn")
	ratioW1 := median(pairRatios(aw1.treeNS, ww1.treeNS))
	ratioWN := median(pairRatios(awn.treeNS, wwn.treeNS))

	res.e2e["ops_per_s"] = 1e9 / (undisturbed(awn.treeNS) * treeTasks)
	res.e2e["op_p50_us"] = undisturbed(awn.opNS) / 1e3
	res.e2e["adws_ws_ratio"] = ratioW1
	// At one worker, like the wall ratio: with thieves about, the CPU ratio
	// settles for a whole run at 1.0 or at 1.2 (about one run in six), which
	// no bound can gate; it is the per-layer runtime.adws_ws_cpu_ratio_wn.
	res.e2e["adws_ws_cpu_ratio"] = median(pairRatios(aw1.cpuNS, ww1.cpuNS))
	res.e2e["cpu_us_per_op"] = undisturbed(awn.cpuNS) / 1e3

	for _, c := range b.configs {
		res.layer["runtime.ns_per_task."+c.policy+"."+c.width] = median(c.treeNS)
		if c.width == "w1" {
			res.layer["runtime.fib_ns_per_task."+c.policy+".w1"] = median(c.fibNS)
		}
	}
	res.layer["runtime.adws_ws_ratio_w1"] = ratioW1
	res.layer["runtime.adws_ws_ratio_wn"] = ratioWN
	res.layer["runtime.adws_ws_cpu_ratio_wn"] = median(pairRatios(awn.cpuNS, wwn.cpuNS))
	if spans != nil {
		b.schedulerCounters(&res)
	}
	return res
}

// pairRatios divides a by b element-wise: one ratio per interleaved repeat.
func pairRatios(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] / b[i]
	}
	return out
}

func statsDelta(a, b adws.Stats) map[string]int64 {
	return map[string]int64{
		"tasks": b.Tasks - a.Tasks, "steals": b.Steals - a.Steals,
		"steal_attempts": b.StealAttempts - a.StealAttempts, "migrations": b.Migrations - a.Migrations,
		"parks": b.Parks - a.Parks, "wakes": b.Wakes - a.Wakes,
	}
}

// schedulerCounters fills the runtime.* counter metrics from what the
// ADWS/wn pool did during its timed blocks, and the allocation metrics from
// MemStats deltas around single-worker ops (one worker, so nothing else
// allocates meanwhile).
func (b *spawnBench) schedulerCounters(res *result) {
	d := b.config("adws", "wn").counts
	res.layer["runtime.steals"] = float64(d.Steals)
	res.layer["runtime.steal_attempts"] = float64(d.StealAttempts)
	res.layer["runtime.migrations"] = float64(d.Migrations)
	res.layer["runtime.parks"] = float64(d.Parks)
	res.layer["runtime.wakes"] = float64(d.Wakes)
	res.layer["runtime.steal_success_ratio"] = d.StealSuccessRate()
	res.layer["runtime.busy_share"] = 0
	if d.BusyNS+d.IdleNS > 0 {
		res.layer["runtime.busy_share"] = float64(d.BusyNS) / float64(d.BusyNS+d.IdleNS)
	}
	for _, policy := range []string{"adws", "ws"} {
		p := b.config(policy, "w1").pool
		const ops = 20
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < ops; i++ {
			p.Run(func(c *adws.Ctx) { spawnTree(c, treeDepth) })
		}
		runtime.ReadMemStats(&m1)
		tasks := float64(ops * treeTasks)
		res.layer["runtime.allocs_per_task."+policy] = float64(m1.Mallocs-m0.Mallocs) / tasks
		if policy == "adws" {
			res.layer["runtime.bytes_per_task.adws"] = float64(m1.TotalAlloc-m0.TotalAlloc) / tasks
		}
	}
}
