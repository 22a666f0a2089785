package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// runTraced is the traced run of one workload. It has two parts.
//
// First the workload itself, at trace size, once plain and once with the
// harness recording spans: the spans go to <outDir>/trace_<workload>.json,
// the ratio of the two wall times is bench.trace_overhead_ratio, and the
// share of each operation its layer spans account for is
// bench.span_closure_ratio.
//
// Then the layer battery, the same whatever the workload: every section
// traced at trace size, plus the micro-timings on idle structures. It
// yields all per-layer metrics, so that every traced run can be compared
// with every other and a layer's number does not depend on which workload
// happened to be traced.
func runTraced(workload string, cfg config, outDir string) (result, error) {
	res := newResult()
	// section sets one workload up and measures it once at trace size.
	section := func(name string, log *spanLog) (time.Duration, error) {
		var wall time.Duration
		r, err := valid(cfg, name, func() (result, error) {
			b, err := newBench(name, cfg, true)
			if err != nil {
				return result{}, err
			}
			defer b.close()
			if log != nil {
				log.spans = log.spans[:0] // a repeated attempt starts over
			}
			runtime.GC()
			epoch := time.Now()
			r := b.run(log, epoch)
			wall = time.Since(epoch)
			return r, nil
		})
		res.absorb(r)
		return wall, err
	}
	plain, err := section(workload, nil)
	if err != nil {
		return res, err
	}
	spans := &spanLog{}
	traced, err := section(workload, spans) // second, so that its layer metrics are the ones kept
	if err != nil {
		return res, err
	}
	res.layer["bench.trace_overhead_ratio"] = float64(traced) / float64(plain)
	res.layer["bench.span_closure_ratio"] = spans.closure()
	path := filepath.Join(outDir, "trace_"+workload+".json")
	if err := writeJSON(path, traceFile{Workload: workload, Seed: cfg.seed, Host: fingerprint(), Spans: spans.spans}); err != nil {
		return res, fmt.Errorf("writing %s: %w", path, err)
	}
	for _, w := range workloads {
		if w.Name != workload {
			if _, err := section(w.Name, &spanLog{}); err != nil {
				return res, err
			}
		}
	}
	if err := micros(cfg, &res); err != nil {
		return res, err
	}
	if err := watchingCosts(cfg, &res); err != nil {
		return res, err
	}
	// A kernel's scheduling share: the tasks it ran, at the empty-task cost
	// the spawn section measured, as a share of its run time.
	perTask := res.layer["runtime.ns_per_task.adws.wn"]
	for _, k := range kernelNames {
		res.layer["kernels."+k+".sched_share"] = res.layer["kernels."+k+".tasks"] * perTask /
			(res.layer["kernels."+k+".parallel_ms"] * 1e6)
	}
	res.layer["bench.failed_ratio"] = float64(res.failed) / float64(max(res.attempted, 1))
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	res.layer["bench.heap_mb"] = float64(m.HeapSys) / (1 << 20)
	return res, nil
}
