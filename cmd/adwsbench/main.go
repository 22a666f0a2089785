// adwsbench regenerates the tables and figures of the ADWS paper's
// evaluation (§6) from the deterministic machine simulator.
//
// Usage:
//
//	adwsbench -figure all                 # everything (slow at full scale)
//	adwsbench -figure 16 -bench dtree     # one figure, one benchmark
//	adwsbench -figure 18 -sizes 0.25,4    # custom working-set sweep
//	adwsbench -machine twolevel16         # scaled-down machine (fast)
//	adwsbench -csv out/                   # also write CSV files
//	adwsbench -trace out.json -bench quicksort -mode sl-adws
//	                                      # one traced simulation instead
//
// Figures: table1, 16 (speedup vs working set), 17 (time breakdown),
// 18 (cache misses), 19 (work-hint sensitivity), 20 (no-hint ADWS),
// 21 (NUMA placement), auto (extension: automatic SL/ML switching, §8).
//
// With -trace or -tracesummary, adwsbench instead runs one simulation of
// the selected benchmark (first of -bench, default quicksort) under -mode
// with the scheduler event tracer attached, writes the Chrome trace-event
// JSON, and/or prints the derived metrics. The simulator emits the same
// event schema as the real runtime (internal/trace), so the two are
// diffable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/parlab/adws/internal/figures"
	"github.com/parlab/adws/internal/sim"
	"github.com/parlab/adws/internal/topology"
	"github.com/parlab/adws/internal/trace"
	"github.com/parlab/adws/internal/workload"
)

func main() {
	var (
		figure  = flag.String("figure", "all", "table1, 16, 17, 18, 19, 20, 21, auto, or all")
		bench   = flag.String("bench", "", "comma-separated benchmark filter (rrm,quicksort,kdtree,dtree,matmul,heat2d,sph)")
		machine = flag.String("machine", "oakbridge", "oakbridge, twolevel16, or threelevel64")
		sizes   = flag.String("sizes", "", "comma-separated working-set factors of the aggregate shared capacity (default 0.125..16)")
		reps    = flag.Int("reps", 2, "repetitions per point (last, warm one measured)")
		seed    = flag.Uint64("seed", 0, "simulation seed (0 = default)")
		csvDir  = flag.String("csv", "", "directory to also write CSV files into")
		jsonOut = flag.String("json", "", "also write the figures as machine-readable JSON to this file (- for stdout)")

		traceOut = flag.String("trace", "", "run one traced simulation and write Chrome trace-event JSON (open in Perfetto)")
		traceSum = flag.Bool("tracesummary", false, "run one traced simulation and print derived trace metrics")
		mode     = flag.String("mode", "sl-adws", "scheduler for the traced simulation: sl-ws, sl-adws, ml-ws, ml-adws")
	)
	flag.Parse()

	opts := figures.Options{Reps: *reps, Seed: *seed}
	switch *machine {
	case "oakbridge":
		opts.Machine = topology.OakbridgeCX()
	case "twolevel16":
		opts.Machine = topology.TwoLevel16()
	case "threelevel64":
		opts.Machine = topology.ThreeLevel64()
	default:
		fatalf("unknown machine %q", *machine)
	}
	if *bench != "" {
		opts.Benches = strings.Split(*bench, ",")
	}
	if *sizes != "" {
		for _, s := range strings.Split(*sizes, ",") {
			f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				fatalf("bad size factor %q: %v", s, err)
			}
			opts.SizeFactors = append(opts.SizeFactors, f)
		}
	}

	if *traceOut != "" || *traceSum {
		if *jsonOut != "" {
			fatalf("-json writes figures; a traced run writes -trace and -tracesummary")
		}
		runTraced(opts, *mode, *traceOut, *traceSum)
		return
	}

	want := func(id string) bool { return *figure == "all" || *figure == id }

	if want("table1") {
		figures.Table1(opts.Machine, os.Stdout)
	}
	var figs []figures.Figure
	if want("16") {
		figs = append(figs, figures.Fig16(opts)...)
	}
	if want("17") {
		figs = append(figs, figures.Fig17(opts)...)
	}
	if want("18") {
		figs = append(figs, figures.Fig18(opts)...)
	}
	if want("19") {
		figs = append(figs, figures.Fig19(opts)...)
	}
	if want("20") {
		figs = append(figs, figures.Fig20(opts)...)
	}
	if want("21") {
		figs = append(figs, figures.Fig21(opts)...)
	}
	if want("auto") {
		figs = append(figs, figures.FigAuto(opts)...)
	}
	if len(figs) == 0 && !want("table1") {
		fatalf("unknown figure %q", *figure)
	}

	if *jsonOut != "" {
		writeJSON(*jsonOut, map[string]any{
			"machine": *machine,
			"workers": opts.Machine.NumWorkers(),
			"figures": figs,
		})
	}
	for _, f := range figs {
		f.Render(os.Stdout)
		if *csvDir != "" {
			path := filepath.Join(*csvDir, strings.ReplaceAll(f.ID, "/", "_")+".csv")
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fatalf("mkdir: %v", err)
			}
			w, err := os.Create(path)
			if err != nil {
				fatalf("create %s: %v", path, err)
			}
			f.CSV(w)
			if err := w.Close(); err != nil {
				fatalf("close %s: %v", path, err)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
}

// runTraced executes one simulation of the selected benchmark with the
// scheduler event tracer attached, then writes the Chrome trace and/or
// prints the derived metrics next to the RunResult line (both share the
// "steals=<successes>/<attempts>" notation).
func runTraced(opts figures.Options, modeStr, out string, printSummary bool) {
	var m sim.Mode
	switch modeStr {
	case "sl-ws":
		m = sim.SLWS
	case "sl-adws":
		m = sim.SLADWS
	case "ml-ws":
		m = sim.MLWS
	case "ml-adws":
		m = sim.MLADWS
	default:
		fatalf("unknown mode %q (want sl-ws, sl-adws, ml-ws, ml-adws)", modeStr)
	}
	machine := opts.Machine
	bench := "quicksort"
	if len(opts.Benches) > 0 {
		bench = opts.Benches[0]
	}
	build, ok := workload.ByName(bench)
	if !ok {
		fatalf("unknown benchmark %q", bench)
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 20190301
	}
	// Half the aggregate shared capacity: in-cache enough to exercise
	// multi-level decisions, big enough to produce a real task tree.
	inst := build(machine.AggregateCapacity(1)/2, seed)

	tr := trace.New(machine.NumWorkers(), 0)
	eng := sim.NewEngine(sim.Config{Machine: machine, Mode: m, Seed: seed, Tracer: tr})
	root, _ := inst.Prepare(eng.Memory())
	res := eng.Run(root)
	fmt.Printf("%s: %s\n", inst, res)

	if printSummary {
		fmt.Print(tr.Summarize().String())
	}
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fatalf("create %s: %v", out, err)
		}
		if err := tr.WriteChromeTrace(f); err != nil {
			fatalf("write %s: %v", out, err)
		}
		if err := f.Close(); err != nil {
			fatalf("close %s: %v", out, err)
		}
		fmt.Printf("wrote %s (%d workers, %d dropped events)\n", out, tr.NumWorkers(), tr.Drops())
	}
}

// writeJSON writes v as indented JSON to path, or stdout for "-".
func writeJSON(path string, v any) {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fatalf("create %s: %v", path, err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatalf("close %s: %v", path, err)
			}
			fmt.Printf("wrote %s\n", path)
		}()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatalf("encode json: %v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "adwsbench: "+format+"\n", args...)
	os.Exit(1)
}
