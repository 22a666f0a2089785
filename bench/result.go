package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// result is what one section (or one whole run) measured.
type result struct {
	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64
	notes             []string // why operations failed, first few only
	invalid           string   // not empty: the run measured something other than it set out to
}

func newResult() result {
	return result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail counts n failed operations and keeps the reason.
func (r *result) fail(n int, format string, args ...any) {
	r.failed += n
	if len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// absorb adds another section's counts and layer metrics to r.
func (r *result) absorb(o result) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.notes = append(r.notes, o.notes...)
	for k, v := range o.layer {
		r.layer[k] = v
	}
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output: the acceptance driver's
// contract.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// toReport selects the declared metrics (end-to-end for a plain run, per-
// layer for a traced one) and fails loudly when one is missing or not a
// number: a silently absent metric would read as "unchanged".
func toReport(r result, traced bool) (report, error) {
	defs, have := endToEnd, r.e2e
	if traced {
		defs, have = perLayer, r.layer
	}
	rep := report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]value, len(defs))}
	for _, d := range defs {
		v, ok := have[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return rep, fmt.Errorf("metric %s was not measured (have %v, value %v)", d.Name, ok, v)
		}
		rep.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return rep, nil
}

// runRecord is one run in a result file.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Traced   bool    `json:"traced"`
	Seconds  float64 `json:"seconds"`
	report
	// Ungated are a plain run's absolute figures: context, not end-to-end
	// metrics (see catalogue.go).
	Ungated map[string]value `json:"ungated,omitempty"`
	Notes   []string         `json:"notes,omitempty"`
}

// resultFile is what -out writes. Claim is always null: the harness
// measures, it never claims a gain.
type resultFile struct {
	Host  hostInfo    `json:"host"`
	Runs  []runRecord `json:"runs"`
	Claim *string     `json:"claim"`
}

func readResultFile(path string) (resultFile, error) {
	var f resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// samples groups a file's plain runs: workload -> metric -> values.
func (f resultFile) samples() map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if r.Traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out
}

// verdict of comparing one metric on one workload between two sets.
type verdict struct {
	Workload, Metric string
	A, B             float64 // medians
	Worse            float64 // share of A by which B is worse (negative: better)
	Spread           float64 // widest IQR/median of the two sets; NaN with < 2 runs
	Bound            float64
	Status           string // "within", "worse", "better", "unresolved"
}

// compareSets judges every end-to-end metric x workload pair. A metric
// whose run-to-run spread exceeds its bound is unresolved, not unchanged:
// the sets cannot tell a regression of that size from noise.
func compareSets(a, b map[string]map[string][]float64) []verdict {
	var out []verdict
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := a[w.Name][d.Name], b[w.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict{Workload: w.Name, Metric: d.Name, A: median(va), B: median(vb), Bound: d.Bound}
			v.Worse = (v.B - v.A) / v.A
			if d.Better == "higher" {
				v.Worse = (v.A - v.B) / v.A
			}
			v.Spread = math.Max(spread(va), spread(vb))
			switch {
			case d.Name != "setup_s" && (math.IsNaN(v.Spread) || v.Spread > d.Bound):
				v.Status = "unresolved"
			case v.Worse > d.Bound:
				v.Status = "worse"
			case v.Worse < -d.Bound:
				v.Status = "better"
			default:
				v.Status = "within"
			}
			out = append(out, v)
		}
	}
	return out
}

func printVerdicts(w io.Writer, vs []verdict) {
	fmt.Fprintf(w, "%-13s %-18s %12s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "median A", "median B", "worse", "spread", "bound", "status")
	for _, v := range vs {
		fmt.Fprintf(w, "%-13s %-18s %12.4f %12.4f %+7.1f%% %7.1f%% %6.0f%%  %s\n",
			v.Workload, v.Metric, v.A, v.B, 100*v.Worse, 100*v.Spread, 100*v.Bound, v.Status)
	}
}

// compareFiles implements -compare: it refuses pairs from different hosts.
func compareFiles(w io.Writer, pathA, pathB string) error {
	fa, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	fb, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	if ok, why := sameHost(fa.Host, fb.Host); !ok {
		return fmt.Errorf("refusing to compare results from different hosts: %s", why)
	}
	vs := compareSets(fa.samples(), fb.samples())
	if len(vs) == 0 {
		return fmt.Errorf("no workload has plain runs in both files")
	}
	fmt.Fprintf(w, "A = %s (commit %s)\nB = %s (commit %s)\n", pathA, fa.Host.Commit, pathB, fb.Host.Commit)
	printVerdicts(w, vs)
	var bad []string
	for _, v := range vs {
		if v.Status == "worse" {
			bad = append(bad, v.Workload+"/"+v.Metric)
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		return fmt.Errorf("B is worse than A beyond the bound on: %v", bad)
	}
	return nil
}
