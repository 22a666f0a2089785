package adws

import (
	"context"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/parlab/adws/internal/metrics"
)

// renderedFamilies renders reg, strictly re-parses it, and returns its
// families' types by name.
func renderedFamilies(t *testing.T, reg *MetricsRegistry) map[string]string {
	t.Helper()
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.ParseText(b.String())
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, b.String())
	}
	out := make(map[string]string, len(fams))
	for _, f := range fams {
		out[f.Name] = f.Type
	}
	return out
}

// TestMetricsCatalogueMatchesRegistries keeps docs/METRICS.md and the
// code in step: every family a façade Pool renders after one finished
// job, or a Cluster renders, is named in the catalogue, and every adws_*
// family the catalogue names is rendered by one of the two. The
// <name>_max companion of a histogram is covered by the catalogue's one
// sentence on those; the adws_trace_* families are the daemon's own and
// render only there.
func TestMetricsCatalogueMatchesRegistries(t *testing.T) {
	raw, err := os.ReadFile("docs/METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := make(map[string]bool)
	for _, name := range regexp.MustCompile(`adws_[a-z0-9_]+`).FindAllString(string(raw), -1) {
		if !strings.HasPrefix(name, "adws_trace_") {
			documented[name] = true
		}
	}

	p, err := NewPool(WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	j, err := p.Submit(ctx, func(*Ctx) error { return nil }, JobHint{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster([]int{1}, RouteRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rendered := renderedFamilies(t, p.Metrics())
	for name, typ := range renderedFamilies(t, c.Metrics()) {
		rendered[name] = typ
	}
	for name := range rendered {
		if base, ok := strings.CutSuffix(name, "_max"); ok && rendered[base] == "histogram" {
			continue
		}
		if !documented[name] {
			t.Errorf("%s is rendered but missing from docs/METRICS.md", name)
		}
	}
	for name := range documented {
		if _, ok := rendered[name]; !ok {
			t.Errorf("docs/METRICS.md lists %s, which neither registry renders", name)
		}
	}
}
