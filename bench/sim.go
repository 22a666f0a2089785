package main

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"github.com/parlab/adws/internal/sim"
	"github.com/parlab/adws/internal/topology"
	"github.com/parlab/adws/internal/workload"
)

// simRepsPerEngine Engine.Run calls are made on each fresh engine: a cold
// run and a warm one, as the paper discards its warm-up repetition.
const simRepsPerEngine = 2

// simCase is one (machine, bench, mode) configuration. It has one
// instance per variant: the same benchmark with the task tree drawn from
// another seed. How much work a simulated quicksort is depends on its
// pivots, so a run that simulated one tree would report that tree; a run
// cycles through simVariants of them, twice.
type simCase struct {
	machine, bench, mode string
	cfg                  []sim.Config
	inst                 []workload.Instance
	digest               []uint64      // per variant, of the first pass over it; later passes must match
	warm                 sim.RunResult // variant 0, warm repetition
}

type simBench struct {
	cfg   config
	cases []*simCase
}

func simMachine(name string) *topology.Machine {
	if name == "twolevel16" {
		return topology.TwoLevel16()
	}
	return topology.ThreeLevel64()
}

// newSim builds the 30 configurations and runs one untimed pass, which
// also fixes the digests every timed pass has to reproduce.
func newSim(cfg config) (*simBench, error) {
	b := &simBench{cfg: cfg}
	for _, mname := range simMachines {
		m := simMachine(mname)
		bytes := int64(cfg.size.simSizeFactor * float64(m.AggregateCapacity(1)))
		for _, bname := range simBenches {
			build, ok := workload.ByName(bname)
			if !ok {
				return nil, fmt.Errorf("sim: no workload %q", bname)
			}
			for i, mode := range sim.Modes {
				c := &simCase{machine: mname, bench: bname, mode: simModes[i],
					digest: make([]uint64, cfg.size.simVariants)}
				for v := 0; v < cfg.size.simVariants; v++ {
					seed := cfg.seed*1000 + uint64(v)
					c.cfg = append(c.cfg, sim.Config{Machine: m, Mode: mode, Seed: seed})
					c.inst = append(c.inst, build(bytes, seed))
				}
				b.cases = append(b.cases, c)
			}
		}
	}
	var scratch result
	b.pass(0, &scratch, nil, time.Time{})
	if scratch.failed > 0 {
		return nil, fmt.Errorf("sim: warm-up pass: %v", scratch.notes)
	}
	return b, nil
}

func (b *simBench) close() {}

// passTimes is the host time one pass spent inside Engine.Run.
type passTimes struct {
	total  time.Duration
	cpu    time.Duration
	byMode map[string]time.Duration
	cpuBy  map[string]time.Duration
	tasks  map[string]int64
}

// pass runs variant v of every configuration on a fresh engine
// (construction untimed) and checks that the simulated statistics repeat
// exactly.
func (b *simBench) pass(v int, res *result, spans *spanLog, epoch time.Time) passTimes {
	pt := passTimes{byMode: map[string]time.Duration{}, cpuBy: map[string]time.Duration{}, tasks: map[string]int64{}}
	for _, c := range b.cases {
		eng := sim.NewEngine(c.cfg[v])
		root, _ := c.inst[v].Prepare(eng.Memory())
		h := fnv.New64a()
		for rep := 0; rep < simRepsPerEngine; rep++ {
			cpu0 := cpuTime()
			t0 := time.Now()
			r := eng.Run(root)
			d := time.Since(t0)
			cpu := cpuTime() - cpu0
			pt.cpu += cpu
			pt.cpuBy[c.mode] += cpu
			pt.total += d
			pt.byMode[c.mode] += d
			pt.tasks[c.mode] += r.Tasks
			fmt.Fprintf(h, "%+v\n", r)
			if v == 0 {
				c.warm = r
			}
			res.attempted++
			if spans != nil {
				spans.add(span{Name: strings.Join([]string{"run", c.machine, c.bench, c.mode}, "."),
					Op: int64(res.attempted), Parent: -1,
					Start: int64(t0.Sub(epoch)), End: int64(t0.Sub(epoch) + d),
					Counts: map[string]int64{"tasks": r.Tasks, "steals": r.Steals,
						"steal_attempts": r.StealAttempts, "migrations": r.Migrations}})
			}
		}
		switch sum := h.Sum64(); {
		case c.digest[v] == 0:
			c.digest[v] = sum
		case c.digest[v] != sum:
			res.fail(simRepsPerEngine, "sim %s/%s/%s: simulated statistics differ between passes of one run", c.machine, c.bench, c.mode)
		}
	}
	return pt
}

func (b *simBench) run(spans *spanLog, epoch time.Time) result {
	res := newResult()
	var ratios, cpuRatios []float64
	var total time.Duration
	byMode, tasks := map[string]time.Duration{}, map[string]int64{}
	runsPerPass := float64(len(b.cases) * simRepsPerEngine)
	variants := b.cfg.size.simVariants
	// Every variant is simulated twice: the second pass must reproduce the
	// first's statistics, and the faster of the two is the variant's time
	// (noise on a shared host only ever adds time).
	perRun, cpuPerRun := make([]float64, variants), make([]float64, variants)
	for p := 0; p < 2*variants; p++ {
		v := p % variants
		pt := b.pass(v, &res, spans, epoch)
		total += pt.total
		if wall := float64(pt.total) / runsPerPass; p < variants || wall < perRun[v] {
			perRun[v], cpuPerRun[v] = wall, float64(pt.cpu)/runsPerPass
		}
		for m, d := range pt.byMode {
			byMode[m] += d
			tasks[m] += pt.tasks[m]
		}
		perTask := func(by map[string]time.Duration, mode string) float64 {
			return float64(by[mode]) / float64(pt.tasks[mode])
		}
		ratios = append(ratios, perTask(pt.byMode, "sl-adws")/perTask(pt.byMode, "sl-ws"))
		cpuRatios = append(cpuRatios, perTask(pt.cpuBy, "sl-adws")/perTask(pt.cpuBy, "sl-ws"))
	}
	res.e2e["ops_per_s"] = 1e9 / (sum(perRun) / float64(variants))
	res.e2e["op_p50_us"] = median(perRun) / 1e3
	res.e2e["adws_ws_ratio"] = median(ratios)
	res.e2e["adws_ws_cpu_ratio"] = median(cpuRatios)
	res.e2e["cpu_us_per_op"] = median(cpuPerRun) / 1e3

	var allTasks int64
	for m, d := range byMode {
		res.layer["sim.host_ns_per_task."+m] = float64(d) / float64(tasks[m])
		allTasks += tasks[m]
	}
	res.layer["sim.tasks_per_s"] = float64(allTasks) / total.Seconds()
	for _, c := range b.cases {
		if c.mode == "sl-adws" {
			res.layer[fmt.Sprintf("sim.sim_time_ns.%s.%s.sl-adws", c.machine, c.bench)] = c.warm.Time
			res.layer[fmt.Sprintf("sim.steals.%s.%s.sl-adws", c.machine, c.bench)] = float64(c.warm.Steals)
		}
	}
	return res
}
