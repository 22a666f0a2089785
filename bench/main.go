// Command bench is the repository's benchmark: one harness, five workloads,
// named end-to-end and per-layer metrics for the ADWS runtime, the serving
// stack and the simulator. Every layer is measured from outside, through
// its exported functions. See README.md in this directory.
//
//	go run ./bench -workload spawn -seed 1            one plain run
//	go run ./bench -workload all -seed 1 -out r.json  all five, result file
//	go run ./bench -workload sim -trace 1             traced run: per-layer metrics
//	go run ./bench -compare A.json B.json             judge B against A
//	go run ./bench -agree -runs 3                     two sets of the same code must agree
//
// The acceptance driver calls
// `go run ./bench --workload W --seed N --seconds S --trace 0|1`
// and reads the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is what one run is made from. The program under test sees only
// inputs generated from seed.
type config struct {
	seed  uint64
	wn    int // worker count, min(nproc, 4)
	size  sizes
	smoke bool // sizes too small to measure anything: validity is not judged
}

// sizes are the fixed operation counts of a run: fixed counts, not fixed
// time, so that `attempted` and every input are a function of the flags
// alone.
type sizes struct {
	setups int // set-up is repeated this often; setup_s is the median

	spawnRepeats, spawnTreeOps, spawnFibOps                       int
	kernelRepeats, quicksortN, matmulN, heatN, heatIters, kdtreeN int
	closedBlocks, closedBlockJobs                                 int
	openLoS, openWindowS, openWarmS                               float64
	openLoSlices                                                  int
	simVariants                                                   int
	simSizeFactor                                                 float64
	microOps, rootClaims, overheadRepeats                         int
}

// defaultSeconds is the measuring time the full sizes are calibrated to on
// the 2-core sandbox; -seconds scales the repeat counts, never the size of
// an operation.
const defaultSeconds = 15

func fullSizes(seconds float64) sizes {
	k := seconds / defaultSeconds
	n := func(base int) int { return max(int(float64(base)*k+0.5), 2) }
	return sizes{
		setups:       5,
		spawnRepeats: n(26), spawnTreeOps: 40, spawnFibOps: 3,
		kernelRepeats: n(36), quicksortN: 1 << 20, matmulN: 512, heatN: 1024, heatIters: 8, kdtreeN: 300_000,
		closedBlocks: n(16), closedBlockJobs: 10_000,
		openLoS: 4 * k, openWindowS: 3 * k, openWarmS: 0.5, openLoSlices: 4,
		simVariants: n(16), simSizeFactor: 0.25,
		microOps: 1 << 16, rootClaims: 1000, overheadRepeats: 9,
	}
}

// traceSizes are the sizes of a traced run, which measures every section
// (see trace.go) and therefore gives each about a quarter of a plain run.
func traceSizes(seconds float64) sizes {
	s := fullSizes(seconds / 4)
	s.setups = 1
	// The open-loop windows keep their full length: a tail percentile needs
	// its thousand arrivals whatever the run is for.
	full := fullSizes(seconds)
	s.openLoS, s.openWindowS = full.openLoS, full.openWindowS
	return s
}

// smokeSizes make every code path run in a few seconds: the tests and
// `-smoke` use them to compare emitted names with BENCHMARK.json.
func smokeSizes() sizes {
	return sizes{
		setups:       2,
		spawnRepeats: 2, spawnTreeOps: 2, spawnFibOps: 1,
		kernelRepeats: 2, quicksortN: 1 << 16, matmulN: 64, heatN: 128, heatIters: 2, kdtreeN: 20_000,
		closedBlocks: 2, closedBlockJobs: 100,
		openLoS: 0.3, openWindowS: 0.3, openWarmS: 0.05, openLoSlices: 2,
		simVariants: 2, simSizeFactor: 1.0 / 64,
		microOps: 1 << 10, rootClaims: 50, overheadRepeats: 2,
	}
}

// bench is one workload, set up and ready to be measured once.
type bench interface {
	run(spans *spanLog, epoch time.Time) result
	close()
}

func newBench(workload string, cfg config, traced bool) (bench, error) {
	switch workload {
	case "spawn":
		return newSpawn(cfg)
	case "kernels":
		return newKernels(cfg, traced)
	case "serve_closed":
		return newClosed(cfg)
	case "serve_open":
		return newOpen(cfg)
	case "sim":
		return newSim(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames())
}

// valid repeats a measurement that did not measure what it set out to (the
// host froze and the open-loop generator fell behind), on the same inputs,
// at most twice; only one that stays invalid is an error. A single freeze of
// some 100 ms in about forty runs must not fail a session of a hundred.
func valid(cfg config, what string, attempt func() (result, error)) (result, error) {
	for n := 1; ; n++ {
		res, err := attempt()
		if err != nil || res.invalid == "" || cfg.smoke {
			return res, err
		}
		if n == 3 {
			return res, fmt.Errorf("%s: invalid after %d attempts: %s", what, n, res.invalid)
		}
		fmt.Fprintf(os.Stderr, "bench: %s: attempt %d is invalid (%s); repeating it\n", what, n, res.invalid)
	}
}

// runPlain sets the workload up (several times, for setup_s), measures it
// once with tracing off, and returns the end-to-end metrics.
func runPlain(workload string, cfg config) (result, error) {
	return valid(cfg, workload, func() (result, error) {
		var b bench
		var setups []float64
		for i := 0; i < cfg.size.setups; i++ {
			if b != nil {
				b.close()
			}
			runtime.GC()
			t0 := time.Now()
			var err error
			if b, err = newBench(workload, cfg, false); err != nil {
				return result{}, err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		defer b.close()
		runtime.GC()
		res := b.run(nil, time.Now())
		res.e2e["setup_s"] = median(setups)
		return res, nil
	})
}

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	out       string
	smoke     bool
	compare   bool
	agree     bool
	runs      int
	calibrate bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames())+" or all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "measuring time the operation counts are sized for")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run, reports the per-layer metrics and writes bench/out/trace_<workload>.json")
	flag.StringVar(&o.out, "out", "", "write a result file (host fingerprint, every run) here")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes: exercises every code path in seconds, measures nothing")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files given as arguments: A.json B.json")
	flag.BoolVar(&o.agree, "agree", false, "run the full set twice and require the two sets to agree within the bounds")
	flag.IntVar(&o.runs, "runs", 3, "with -agree: runs per workload in each set")
	flag.BoolVar(&o.calibrate, "calibrate", false, "measure the serve_open capacity that rate_lo/mid/hi are fractions of")
	flag.Parse()
	if err := realMain(o, flag.Args(), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(o options, args []string, stdout io.Writer) error {
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(stdout, args[0], args[1])
	}
	wn, err := workerCount()
	if err != nil {
		return err
	}
	if o.seconds <= 0 || o.trace < 0 || o.trace > 1 {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	if o.agree {
		return agree(o, wn, stdout)
	}
	if o.calibrate {
		return calibrate(config{seed: o.seed, wn: wn}, stdout)
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames()
	} else if !isWorkload(o.workload) {
		return fmt.Errorf("unknown workload %q (have %v and all)", o.workload, workloadNames())
	}
	file := resultFile{Host: fingerprint()}
	for _, name := range names {
		rec, err := runOne(name, o, wn, stdout)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		file.Runs = append(file.Runs, rec)
	}
	if o.out != "" {
		if err := writeJSON(o.out, file); err != nil {
			return err
		}
	}
	// The last line of standard output is the machine-readable result: the
	// acceptance driver's report for one workload, a summary for all.
	if o.workload != "all" {
		return json.NewEncoder(stdout).Encode(file.Runs[0].report)
	}
	return json.NewEncoder(stdout).Encode(summarize(file))
}

// runOne makes one run of one workload and prints its metrics by name.
func runOne(workload string, o options, wn int, stdout io.Writer) (runRecord, error) {
	cfg := config{seed: o.seed, wn: wn, smoke: o.smoke}
	traced := o.trace == 1
	switch {
	case o.smoke:
		cfg.size = smokeSizes()
	case traced:
		cfg.size = traceSizes(o.seconds)
	default:
		cfg.size = fullSizes(o.seconds)
	}
	var res result
	var err error
	if traced {
		res, err = runTraced(workload, cfg, filepath.Join("bench", "out"))
	} else {
		res, err = runPlain(workload, cfg)
	}
	if err != nil {
		return runRecord{}, err
	}
	rep, err := toReport(res, traced)
	if err != nil {
		return runRecord{}, err
	}
	rec := runRecord{Workload: workload, Seed: o.seed, Traced: traced, Seconds: o.seconds, report: rep, Notes: res.notes}
	if !traced {
		rec.Ungated = map[string]value{}
		for _, d := range ungated {
			rec.Ungated[d.Name] = value{Value: res.e2e[d.Name], Unit: d.Unit}
		}
	}
	printRecord(stdout, rec)
	return rec, nil
}

func printRecord(w io.Writer, rec runRecord) {
	fmt.Fprintf(w, "workload %s  seed %d  attempted %d  failed %d\n", rec.Workload, rec.Seed, rec.Attempted, rec.Failed)
	print := func(m map[string]value, note string) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-44s %16.4f %-6s%s\n", n, m[n].Value, m[n].Unit, note)
		}
	}
	print(rec.Metrics, "")
	print(rec.Ungated, " (not gated: drifts with the host)")
	for _, n := range rec.Notes {
		fmt.Fprintf(w, "  FAILED: %s\n", n)
	}
}

// summary is the last line of `-workload all` and `-agree`. The harness
// measures; it never claims a gain, so Claim is always null.
type summary struct {
	Host      hostInfo `json:"host"`
	Workloads []string `json:"workloads"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Claim     *string  `json:"claim"`
}

func summarize(f resultFile) summary {
	s := summary{Host: f.Host, Correct: true}
	seen := map[string]bool{}
	for _, r := range f.Runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			s.Workloads = append(s.Workloads, r.Workload)
		}
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		s.Correct = s.Correct && r.Correct
	}
	return s
}

// agree runs every workload o.runs times, twice over, and requires the two
// sets' medians to agree within each metric's bound.
func agree(o options, wn int, stdout io.Writer) error {
	var sets [2]resultFile
	for s := range sets {
		sets[s].Host = fingerprint()
		for _, w := range workloads {
			for r := 0; r < o.runs; r++ {
				ro := o
				ro.seed, ro.trace = o.seed+uint64(r), 0
				rec, err := runOne(w.Name, ro, wn, io.Discard)
				if err != nil {
					return fmt.Errorf("set %d, %s: %w", s+1, w.Name, err)
				}
				fmt.Fprintf(stdout, "set %d  %-12s seed %d  failed %d\n", s+1, w.Name, ro.seed, rec.Failed)
				sets[s].Runs = append(sets[s].Runs, rec)
			}
		}
		if o.out != "" {
			if err := writeJSON(fmt.Sprintf("%s.set%d.json", o.out, s+1), sets[s]); err != nil {
				return err
			}
		}
	}
	vs := compareSets(sets[0].samples(), sets[1].samples())
	printVerdicts(stdout, vs)
	both := resultFile{Host: sets[0].Host, Runs: append(sets[0].Runs, sets[1].Runs...)}
	if err := json.NewEncoder(stdout).Encode(summarize(both)); err != nil {
		return err
	}
	for _, v := range vs {
		if v.Status != "within" {
			return fmt.Errorf("the two sets disagree: %s/%s is %s", v.Workload, v.Metric, v.Status)
		}
	}
	return nil
}
