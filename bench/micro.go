package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"github.com/parlab/adws"
	"github.com/parlab/adws/internal/cluster"
	"github.com/parlab/adws/internal/deque"
	"github.com/parlab/adws/internal/metrics"
	"github.com/parlab/adws/internal/obs"
	"github.com/parlab/adws/internal/runtime"
	"github.com/parlab/adws/internal/sched"
	"github.com/parlab/adws/internal/server"
	"github.com/parlab/adws/internal/sim"
	"github.com/parlab/adws/internal/topology"
	"github.com/parlab/adws/internal/trace"
)

// Micro-timings of single layers, called directly on idle structures. They
// are the per-layer half of the interaction table in README.md: each says
// how long one operation of a layer takes when nothing else runs.

const microRounds = 7

// sink keeps the compiler from discarding a timed call's result.
var sink int

// perOp times rounds of n operations and returns the median nanoseconds
// per operation. prep, if not nil, runs untimed before every round.
func perOp(n int, prep func(), timed func(n int)) float64 {
	return perOpSelfTimed(n, func(n int) time.Duration {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		timed(n)
		return time.Since(t0)
	})
}

// perOpSelfTimed is perOp for rounds that interleave untimed refills with
// the timed operations and so keep their own stopwatch.
func perOpSelfTimed(n int, round func(n int) time.Duration) float64 {
	var ns []float64
	for r := 0; r < microRounds; r++ {
		ns = append(ns, float64(round(n))/float64(n))
	}
	return median(ns)
}

// micros fills the layer metrics that need no pool of their own.
func micros(cfg config, res *result) error {
	n := cfg.size.microOps

	// internal/sched: the queue structure every ADWS push, pop and steal
	// goes through, eight depths as on the way down a spawn tree.
	var q sched.QueueSet[int]
	res.layer["sched.queueset_push_pop_ns"] = perOp(n, nil, func(n int) {
		for i := 0; i < n; i += 8 {
			for d := 0; d < 8; d++ {
				q.PushPrimary(d, i)
			}
			for d := 0; d < 8; d++ {
				v, _ := q.PopLocal()
				sink += v
			}
		}
	})
	// Steals empty a realistically short queue set (4 tasks at each depth):
	// the slice-backed deques shift on every bottom pop, so a long queue
	// would time the copy, not the steal.
	res.layer["sched.queueset_steal_ns"] = perOpSelfTimed(n, func(n int) time.Duration {
		var d time.Duration
		for i := 0; i < n; i += 32 {
			for k := 0; k < 32; k++ {
				q.PushPrimary(k&7, k)
			}
			t0 := time.Now()
			for k := 0; k < 32; k++ {
				v, _ := q.StealPrimary(0)
				sink += v
			}
			d += time.Since(t0)
		}
		return d
	})
	full := sched.FullRange(0, 16)
	res.layer["sched.splitter_next_ns"] = perOp(n, nil, func(n int) {
		for i := 0; i < n; i += 2 {
			s := sched.NewSplitter(full, 2)
			a, b := s.NextChild(1), s.NextChild(1)
			sink += a.Owner() + b.Owner()
		}
	})
	g := sched.NewRootGroup(full)
	for r := full; r.Width() > 1; {
		r = sched.Range{X: r.X, Y: r.X + r.Width()/2}
		g = g.NewChildGroup(r)
	}
	res.layer["sched.steal_range_ns"] = perOp(n, nil, func(n int) {
		for i := 0; i < n; i++ {
			sr, _ := sched.CurrentStealRange(g, 0)
			sink += sr.High
		}
	})

	// internal/deque: the lock-free deque under the WS policies.
	dq := deque.New[int]()
	item := new(int)
	res.layer["deque.push_pop_ns"] = perOp(n, nil, func(n int) {
		for i := 0; i < n; i++ {
			dq.PushBottom(item)
			v, _ := dq.PopBottom()
			sink += *v
		}
	})
	res.layer["deque.steal_ns"] = perOp(n, func() {
		for i := 0; i < n; i++ {
			dq.PushBottom(item)
		}
	}, func(n int) {
		for i := 0; i < n; i++ {
			v, _ := dq.Steal()
			sink += *v
		}
	})

	// internal/metrics, internal/obs, internal/trace: one recording call.
	hist := metrics.NewStandaloneHistogram(1)
	res.layer["metrics.hist_record_ns"] = perOp(n, nil, func(n int) {
		for i := 0; i < n; i++ {
			hist.Record(0, int64(i))
		}
	})
	ctr := metrics.NewRegistry().Counter("bench_micro_total", "Micro-timing counter.")
	res.layer["metrics.counter_inc_ns"] = perOp(n, nil, func(n int) {
		for i := 0; i < n; i++ {
			ctr.Inc()
		}
	})
	rec := obs.NewRecorder(obs.Config{Workers: 1})
	res.layer["obs.wants_ns"] = perOp(n, nil, func(n int) {
		for i := 0; i < n; i++ {
			if rec.Wants(trace.EvTaskBegin, int32(i&3)) {
				sink++
			}
		}
	})
	ev := trace.Event{Type: trace.EvStealAttempt, Self: 1, Victim: 2, Depth: 3, Time: 4, Task: 5}
	res.layer["obs.record_ns"] = perOp(n, nil, func(n int) {
		for i := 0; i < n; i++ {
			rec.Record(0, ev)
		}
	})
	fill := func() {
		for i := 0; i < rec.Capacity(); i++ {
			rec.Record(0, ev)
		}
	}
	res.layer["obs.dump_ms"] = perOp(1, fill, func(int) {
		sink += len(rec.Dump("bench", -1, nil).Events)
	}) / 1e6
	tr := trace.New(1, 1<<16)
	res.layer["trace.record_ns"] = perOp(n, nil, func(n int) {
		for i := 0; i < n; i++ {
			tr.Record(0, ev)
		}
	})

	// internal/sim: the cache model under every simulated compute step.
	mem := sim.NewMemory(1, sim.Interleave)
	seg := mem.Alloc("bench", 4<<20)
	costs := sim.DefaultCosts()
	hier := sim.NewHierarchy(topology.TwoLevel16(), mem, &costs)
	sweep := []sim.AccessSpec{sim.Pass(seg, 1)}
	res.layer["sim.hier_access_ns"] = perOp(seg.NumChunks(), nil, func(int) {
		sink += int(hier.AccessRange(0, sweep))
	})
	cs := sim.NewCacheSet(1 << 20)
	res.layer["sim.cacheset_touch_ns"] = perOp(n, nil, func(n int) {
		for i := 0; i < n; i++ {
			if cs.Touch(sim.Chunk(i & 1023)) {
				sink++
			}
		}
	})

	// internal/cluster: one routing decision over a two-pool snapshot.
	snaps := []cluster.Snapshot{
		{Pool: 0, Workers: 1, Queued: 3, Running: 1, MaxQueue: openQueue},
		{Pool: 1, Workers: 1, Queued: 1, Running: 1, MaxQueue: openQueue},
	}
	keys := make([]string, openKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	for _, name := range routerNames {
		router, err := cluster.ParsePolicy(name)
		if err != nil {
			return err
		}
		res.layer["cluster.route_ns."+name] = perOp(n, nil, func(n int) {
			for i := 0; i < n; i++ {
				sink += router.Route(cluster.Request{Key: keys[i%openKeys], Work: 1}, snaps).Pool
			}
		})
	}
	if err := microRootClaim(cfg, res); err != nil {
		return err
	}
	return microSLONext(res)
}

// microRootClaim times runtime.Pool.SubmitRoot on a parked pool: from the
// call to the body starting on a worker, and from the body ending to Done.
func microRootClaim(cfg config, res *result) error {
	p := runtime.NewPool(runtime.Config{Machine: topology.Flat(cfg.wn, 32<<20, 1<<20), Policy: runtime.ADWS, Seed: cfg.seed})
	defer p.Close()
	var claim, done []float64
	for i := 0; i < cfg.size.rootClaims; i++ {
		sleepFor(50 * time.Microsecond) // let every worker run dry and park
		var tb0, tb1 time.Time
		t0 := time.Now()
		j, err := p.SubmitRoot(func(*runtime.Ctx) { tb0 = time.Now(); tb1 = time.Now() }, 0, 1)
		if err != nil {
			return fmt.Errorf("micro: SubmitRoot: %w", err)
		}
		<-j.Done()
		tdone := time.Now()
		claim = append(claim, float64(tb0.Sub(t0)))
		done = append(done, float64(tdone.Sub(tb1)))
	}
	sort.Float64s(claim)
	res.layer["runtime.root_claim_us_p50"] = quantile(claim, 0.5) / 1e3
	res.layer["runtime.root_claim_us_p99"] = tail(claim, 99) / 1e3
	res.layer["runtime.root_done_us_p50"] = median(done) / 1e3
	return nil
}

// microSLONext times PriorityAdmitter.Next over real queued jobs: a pool
// whose only running slot is held by a gate job queues the rest.
func microSLONext(res *result) error {
	const depth = 1024
	p, err := adws.NewPool(adws.WithWorkers(1), adws.WithAdmissionPolicy(adws.AdmitSLO), adws.WithAdmission(1, depth))
	if err != nil {
		return err
	}
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before p.Close: a pool does not close under a running job
	if _, err := p.Submit(ctx, func(*adws.Ctx) error { <-gate; return nil }, adws.JobHint{}); err != nil {
		return err
	}
	classes := server.DefaultClasses()
	queue := make([]*server.Job, depth)
	for i := range queue {
		h := adws.JobHint{Work: float64(1 + i%5), Class: classes[i%len(classes)], Deadline: time.Now().Add(time.Hour + time.Duration(i%7)*time.Second)}
		if queue[i], err = p.Submit(ctx, func(*adws.Ctx) error { return nil }, h); err != nil {
			return fmt.Errorf("micro: queueing job %d: %w", i, err)
		}
	}
	adm := server.NewPriorityAdmitter(classes, 1, depth)
	now := time.Now()
	for _, d := range []int{64, depth} {
		res.layer[fmt.Sprintf("server.slo_next_us.q%d", d)] = perOp(nextCalls(d), nil, func(n int) {
			for i := 0; i < n; i++ {
				sink += adm.Next(now, queue[:d])
			}
		}) / 1e3
	}
	cancel() // the queued jobs end as canceled; none of them runs
	release()
	return p.Drain(context.Background())
}

// nextCalls picks how many Next calls make one timed round: about as many
// queue entries scanned whatever the depth.
func nextCalls(depth int) int { return max(65536/depth, 8) }

// overheadRatio runs the spawn tree on two single-worker ADWS pools that
// differ only in opts, interleaved, and returns the median of the paired
// ratios of their block times (with ÷ without).
func overheadRatio(cfg config, with, without []adws.Option) (ratio float64, withPool *adws.Pool, err error) {
	pw, err := newPool(cfg, "adws", 1, with...)
	if err != nil {
		return 0, nil, err
	}
	po, err := newPool(cfg, "adws", 1, without...)
	if err != nil {
		pw.Close()
		return 0, nil, err
	}
	defer po.Close()
	var tw, to []float64
	for r := 0; r < cfg.size.overheadRepeats; r++ {
		for _, c := range []struct {
			p   *adws.Pool
			out *[]float64
		}{{pw, &tw}, {po, &to}} {
			t0 := time.Now()
			for i := 0; i < cfg.size.spawnTreeOps; i++ {
				c.p.Run(func(ctx *adws.Ctx) { spawnTree(ctx, treeDepth) })
			}
			*c.out = append(*c.out, float64(time.Since(t0)))
		}
	}
	return median(pairRatios(tw, to)), pw, nil
}

// watchingCosts fills the overhead ratios of the flight recorder and the
// tracer, and what rendering and summarising their output costs.
func watchingCosts(cfg config, res *result) error {
	// Always-on recorder (the default) against a pool without one.
	ratio, p, err := overheadRatio(cfg, nil, []adws.Option{adws.WithFlightRecorder(-1)})
	if err != nil {
		return err
	}
	res.layer["obs.recorder_overhead_ratio"] = ratio
	res.layer["metrics.render_ms"] = perOp(1, nil, func(int) {
		_ = p.Metrics().WriteText(io.Discard) // io.Discard does not fail
	}) / 1e6
	p.Close()
	// Full tracing against the default.
	ratio, p, err = overheadRatio(cfg, []adws.Option{adws.WithTracing(0)}, nil)
	if err != nil {
		return err
	}
	defer p.Close()
	res.layer["trace.overhead_ratio"] = ratio
	res.layer["trace.summarize_ms"] = perOp(1, nil, func(int) {
		sink += int(p.Tracer().Summarize().Tasks)
	}) / 1e6
	return nil
}
