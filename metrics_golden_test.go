package adws

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/parlab/adws/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite testdata/metrics_golden.txt")

const metricsGoldenFile = "testdata/metrics_golden.txt"

// TestMetricsExpositionGolden pins what a façade pool's /metrics
// exposition says after a fixed job sequence: every family's name, HELP,
// TYPE and label sets, and the value of every sample the sequence fixes —
// the job families (with their histograms' _count and +Inf bucket),
// adws_workers and adws_tasks_total. Timing-dependent values (steals,
// parks, busy/idle seconds, histogram sums and maxima, per-worker splits)
// print as "*", and finite histogram buckets, whose set depends on the
// recorded latencies, are left out. Families are sorted by name, so a
// refactor may change the order in which they render but nothing else.
func TestMetricsExpositionGolden(t *testing.T) {
	p, err := NewPool(WithWorkers(2), WithAdmissionPolicy(AdmitSLO))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	run := func(fn func(*Ctx) error, h JobHint) error {
		t.Helper()
		j, err := p.Submit(ctx, fn, h)
		if err != nil {
			t.Fatalf("submit %+v: %v", h, err)
		}
		return j.Wait(ctx)
	}
	ok := func(*Ctx) error { return nil }
	for _, class := range []string{ClassInteractive, ClassStandard, ClassBatch} {
		if err := run(ok, JobHint{Class: class, Tenant: "t"}); err != nil {
			t.Fatalf("%s job: %v", class, err)
		}
	}
	boom := errors.New("boom")
	if err := run(func(*Ctx) error { return boom }, JobHint{Tenant: "t"}); !errors.Is(err, boom) {
		t.Fatalf("failing job returned %v, want %v", err, boom)
	}
	if _, err := p.Submit(ctx, ok, JobHint{Class: "nope"}); !errors.Is(err, ErrUnknownClass) {
		t.Fatalf("unknown class: got %v, want ErrUnknownClass", err)
	}
	past := JobHint{Tenant: "t", Deadline: time.Now().Add(-time.Second)}
	if _, err := p.Submit(ctx, ok, past); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("past deadline: got %v, want DeadlineExceeded", err)
	}

	var b strings.Builder
	if err := p.Metrics().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.ParseText(b.String())
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, b.String())
	}
	got := goldenExposition(fams)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metricsGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(metricsGoldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("exposition differs from %s\n--- got ---\n%s--- want ---\n%s", metricsGoldenFile, got, want)
	}
}

// goldenExposition renders fams in the golden file's form: families
// sorted by name, each as a "# name type help" header followed by its
// samples in sorted order with their labels sorted by name.
func goldenExposition(fams []metrics.Family) string {
	hist := make(map[string]bool)
	for _, f := range fams {
		if f.Type == "histogram" {
			hist[f.Name] = true
		}
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintln(&b, strings.TrimSpace("# "+f.Name+" "+f.Type+" "+f.Help))
		var lines []string
		for _, s := range f.Samples {
			if strings.HasSuffix(s.Name, "_bucket") && s.Labels["le"] != "+Inf" {
				continue
			}
			names := make([]string, 0, len(s.Labels))
			for k := range s.Labels {
				names = append(names, k)
			}
			sort.Strings(names)
			pairs := make([]string, len(names))
			for i, k := range names {
				pairs[i] = fmt.Sprintf("%s=%q", k, s.Labels[k])
			}
			value := "*"
			if fixedBySequence(f, s, hist) {
				value = fmt.Sprint(s.Value)
			}
			lines = append(lines, fmt.Sprintf("%s{%s} %s", s.Name, strings.Join(pairs, ","), value))
		}
		sort.Strings(lines)
		for _, l := range lines {
			fmt.Fprintln(&b, l)
		}
	}
	return b.String()
}

// fixedBySequence reports whether the golden test's job sequence fixes
// sample s of family f: every sample of a job family except histogram
// sums and maxima, plus the worker and task totals.
func fixedBySequence(f metrics.Family, s metrics.Sample, hist map[string]bool) bool {
	if base, ok := strings.CutSuffix(f.Name, "_max"); ok && hist[base] {
		return false
	}
	switch {
	case f.Name == "adws_workers", f.Name == "adws_tasks_total":
		return true
	case !strings.HasPrefix(f.Name, "adws_job"):
		return false
	case f.Type == "histogram":
		return strings.HasSuffix(s.Name, "_count") || strings.HasSuffix(s.Name, "_bucket")
	}
	return true
}
