package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"github.com/parlab/adws/internal/sched"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the catalogue in catalogue.go")

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{7, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {30000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		// The rule itself: the chosen percentile leaves >= 10 samples
		// beyond it, and the next higher candidate would not.
		if p := tailPercentile(c.n); p != 50 && float64(c.n)*(1-p/100) < 10-1e-9 {
			t.Errorf("n=%d: p%v leaves fewer than ten samples beyond it", c.n, p)
		}
	}
}

func TestSpreadUsesPythonExclusiveQuartiles(t *testing.T) {
	// statistics.quantiles([12,15,11,19,14,13,18,16,17,10], n=4) is
	// [11.75, 14.5, 17.25]; the median is 14.5.
	v := []float64{12, 15, 11, 19, 14, 13, 18, 16, 17, 10}
	if got, want := spread(v), (17.25-11.75)/14.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := median(v); got != 14.5 {
		t.Errorf("median = %v, want 14.5", got)
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	arrivals := func(seed uint64) []jobRec {
		jobs, err := (&openBench{}).schedule(sched.NewRNG(seed, 0), rateLo, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return jobs
	}
	key := func(jobs []jobRec) (out []string) {
		for _, j := range jobs {
			out = append(out, fmt.Sprint(j.key, j.hint.Class, j.hint.Tenant, j.due, j.seed))
		}
		return out
	}
	a, b, c := arrivals(7), arrivals(7), arrivals(8)
	if len(a) < 100 {
		t.Fatalf("only %d arrivals in 0.5 s at %.0f/s", len(a), rateLo)
	}
	if !reflect.DeepEqual(key(a), key(b)) {
		t.Error("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(key(a), key(c)) {
		t.Error("two seeds gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
	tw, err := twin(a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(key(a), key(tw)) {
		t.Error("a twin window does not replay the same arrivals")
	}
}

func TestSelfTimeSubtractsWhatChildrenCover(t *testing.T) {
	spans := []span{
		{Name: "job", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 0, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50}, // overlaps a by 10
		{Name: "b1", Parent: 2, Start: 25, End: 35},
		{Name: "c", Parent: 0, Start: 90, End: 120}, // runs past its parent
	}
	want := []int64{100 - (50 + 10), 30, 30 - 10, 10, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestJobSpansSumToEndToEnd(t *testing.T) {
	// Body started before Submit returned (closed loop, idle pool) and a
	// queued open-loop job: in both, the layer spans tile the job.
	for _, j := range []jobRec{
		{t0: 100, t1: 160, tb0: 140, tb1: 900, tdone: 950},
		{due: 50, t0: 100, t1: 160, tb0: 5000, tb1: 5900, tdone: 6000, queued: 4000},
	} {
		var l spanLog
		j.emit(&l, 1)
		if got := l.closure(); math.Abs(got-1) > 1e-9 {
			t.Errorf("job %+v: layer self times cover %.4f of end-to-end, want 1", j, got)
		}
		self := selfTimes(l.spans)
		for i, s := range l.spans {
			if self[i] < 0 || s.End < s.Start {
				t.Errorf("span %s [%d,%d] has self time %d", s.Name, s.Start, s.End, self[i])
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestCatalogueObeysTheBenchmarkContract(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		check("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %v", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no end-to-end metric setup_s in s, lower is better")
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
}

// benchmarkJSON mirrors /BENCHMARK.json, which has exactly these keys.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func catalogueAsJSON() benchmarkJSON {
	b := benchmarkJSON{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: defaultSeconds}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		}{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		b.PerLayer = append(b.PerLayer, struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		}{m.Name, m.Unit, m.Better})
	}
	return b
}

// TestCatalogueMatchesBenchmarkJSON fails when /BENCHMARK.json and the
// catalogue the harness emits from disagree in either direction. Run with
// -update to regenerate the file after editing catalogue.go.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want := catalogueAsJSON()
	if *update {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(want); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json and catalogue.go disagree (regenerate with: go test ./bench -run TestCatalogueMatchesBenchmarkJSON -update)\n%s", diffNames(got, want))
	}
}

func diffNames(got, want benchmarkJSON) string {
	names := func(b benchmarkJSON) map[string]bool {
		m := map[string]bool{}
		for _, x := range b.Workloads {
			m["workload "+x.Name] = true
		}
		for _, x := range b.EndToEnd {
			m["end_to_end "+x.Name] = true
		}
		for _, x := range b.PerLayer {
			m["per_layer "+x.Name] = true
		}
		return m
	}
	g, w := names(got), names(want)
	var out []string
	for n := range g {
		if !w[n] {
			out = append(out, "only in BENCHMARK.json: "+n)
		}
	}
	for n := range w {
		if !g[n] {
			out = append(out, "only in catalogue.go:   "+n)
		}
	}
	sort.Strings(out)
	if len(out) == 0 {
		return "same names; a unit, direction, bound, why, command, path or run_seconds differs"
	}
	return strings.Join(out, "\n")
}

// TestSmokeRunsEmitExactlyTheDeclaredNames runs every workload plain and
// one traced, at smoke sizes, and requires the emitted metric names to be
// the declared ones: toReport fails on a missing name, the comparison below
// on an undeclared one.
func TestSmokeRunsEmitExactlyTheDeclaredNames(t *testing.T) {
	wn, err := workerCount()
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{seed: 1, wn: wn, size: smokeSizes(), smoke: true}
	declared := func(defs []metricDef) map[string]bool {
		m := map[string]bool{}
		for _, d := range defs {
			m[d.Name] = true
		}
		return m
	}
	for _, w := range workloads {
		res, err := runPlain(w.Name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if _, err := toReport(res, false); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", w.Name, res.attempted, res.failed, res.notes)
		}
		for name := range res.e2e {
			if !declared(endToEnd)[name] && !declared(ungated)[name] {
				t.Errorf("%s emits %s, which is neither a declared end-to-end metric nor an ungated figure", w.Name, name)
			}
		}
	}
	res, err := runTraced("serve_closed", cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := toReport(res, true); err != nil {
		t.Error(err)
	}
	if res.failed != 0 {
		t.Errorf("traced run: %d operations failed: %v", res.failed, res.notes)
	}
	for name := range res.layer {
		if !declared(perLayer)[name] {
			t.Errorf("traced run emits per-layer metric %s, which BENCHMARK.json does not declare", name)
		}
	}
	if c := res.layer["bench.span_closure_ratio"]; math.Abs(c-1) > 0.05 {
		t.Errorf("layer spans account for %.3f of a job's end-to-end time, want within 5 %% of 1", c)
	}
}

func TestCompareRefusesOtherHostsAndReportsUnresolved(t *testing.T) {
	dir := t.TempDir()
	file := func(name string, host hostInfo, ratios []float64) string {
		f := resultFile{Host: host}
		for i, v := range ratios {
			f.Runs = append(f.Runs, runRecord{Workload: "spawn", Seed: uint64(i), report: report{Correct: true, Attempted: 1,
				Metrics: map[string]value{"adws_ws_ratio": {v, "ratio"}}}})
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	here := fingerprint()
	other := here
	other.NumCPU++
	steady := []float64{1.20, 1.21, 1.19, 1.20, 1.22, 1.18}
	a := file("a.json", here, steady)

	var out bytes.Buffer
	if err := compareFiles(&out, a, file("other.json", other, steady)); err == nil || !strings.Contains(err.Error(), "different hosts") {
		t.Errorf("cross-host compare: err = %v, want a refusal", err)
	}
	if err := compareFiles(&out, a, file("same.json", here, steady)); err != nil {
		t.Errorf("identical sets: %v", err)
	}
	if err := compareFiles(&out, a, file("slow.json", here, []float64{1.60, 1.61, 1.59, 1.60, 1.62, 1.58})); err == nil {
		t.Error("a ratio a third higher was not reported as worse")
	}
	out.Reset()
	noisy := []float64{0.8, 1.7, 0.9, 1.5, 1.2, 1.1}
	if err := compareFiles(&out, a, file("noisy.json", here, noisy)); err != nil {
		t.Errorf("noisy set: %v", err)
	}
	if !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread wider than the bound must read unresolved, not unchanged:\n%s", out.String())
	}
}

func TestWorkerCountNeverExceedsCPUs(t *testing.T) {
	wn, err := workerCount()
	if err != nil {
		t.Fatal(err)
	}
	if wn > runtime.NumCPU() || wn > 4 || wn < 1 {
		t.Errorf("workerCount = %d on %d CPUs", wn, runtime.NumCPU())
	}
	if runtime.NumCPU() > 1 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		if _, err := workerCount(); err == nil {
			t.Error("GOMAXPROCS below the worker count must be a hard error")
		}
	}
}
