package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestRegistryWriteTextRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "Operations.")
	h := r.Histogram("test_latency_seconds", "Latency.", 4)
	r.CounterFunc("test_fn_total", "From a func.", func() float64 { return 7 })
	r.GaugeFunc("test_fn_gauge", "Gauge func.", func() float64 { return 2.5 })
	r.CounterMultiFunc("test_worker_ops_total", "Per worker.", func() []MultiLabeled {
		return []MultiLabeled{
			{Labels: []Label{{Name: "worker", Value: "0"}}, Value: 3},
			{Labels: []Label{{Name: "worker", Value: "1"}}, Value: 4},
		}
	})

	c.Add(41)
	c.Inc()
	h.Record(0, 100)        // linear region
	h.Record(1, 1_000_000)  // 1ms
	h.RecordAny(50_000_000) // 50ms

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseText(b.String())
	if err != nil {
		t.Fatalf("strict parse of own output failed: %v\n%s", err, b.String())
	}
	byName := map[string]Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}

	if f := byName["test_ops_total"]; f.Type != "counter" {
		t.Fatalf("test_ops_total type %q", f.Type)
	} else if v, ok := f.Sample(); !ok || v != 42 {
		t.Fatalf("test_ops_total = %g, want 42", v)
	}
	if v, _ := byName["test_fn_total"].Sample(); v != 7 {
		t.Fatalf("test_fn_total = %g, want 7", v)
	}
	if v, _ := byName["test_fn_gauge"].Sample(); v != 2.5 {
		t.Fatalf("test_fn_gauge = %g, want 2.5", v)
	}

	vec := byName["test_worker_ops_total"]
	if len(vec.Samples) != 2 {
		t.Fatalf("worker vec has %d samples, want 2", len(vec.Samples))
	}
	if vec.Samples[1].Labels["worker"] != "1" || vec.Samples[1].Value != 4 {
		t.Fatalf("worker vec sample = %+v", vec.Samples[1])
	}

	hist := byName["test_latency_seconds"]
	if hist.Type != "histogram" {
		t.Fatalf("histogram family type %q", hist.Type)
	}
	var count, sum float64
	infSeen := false
	for _, s := range hist.Samples {
		switch s.Name {
		case "test_latency_seconds_count":
			count = s.Value
		case "test_latency_seconds_sum":
			sum = s.Value
		case "test_latency_seconds_bucket":
			if s.Labels["le"] == "+Inf" {
				infSeen = true
			}
		}
	}
	if count != 3 || !infSeen {
		t.Fatalf("histogram count=%g infSeen=%v, want 3/true", count, infSeen)
	}
	wantSum := (100 + 1_000_000 + 50_000_000) / 1e9
	if math.Abs(sum-wantSum) > 1e-12 {
		t.Fatalf("histogram sum=%g, want %g", sum, wantSum)
	}
}

// TestHistogramVecRoundTrip pins the labeled-histogram family: each class
// renders its own complete _bucket/_sum/_count group under one TYPE
// header, and the strict parser validates each group independently.
func TestHistogramVecRoundTrip(t *testing.T) {
	r := NewRegistry()
	vec := r.HistogramVec("test_class_seconds", "Per-class latency.", "class",
		[]string{"interactive", "batch"}, 2)
	vec["interactive"].RecordAny(1_000_000) // 1ms
	vec["interactive"].RecordAny(2_000_000) // 2ms
	vec["batch"].RecordAny(500_000_000)     // 500ms

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseText(b.String())
	if err != nil {
		t.Fatalf("strict parse of labeled histogram failed: %v\n%s", err, b.String())
	}
	if len(fams) != 2 || fams[0].Name != "test_class_seconds" || fams[0].Type != "histogram" {
		t.Fatalf("families = %+v", fams)
	}
	if fams[1].Name != "test_class_seconds_max" || fams[1].Type != "gauge" {
		t.Fatalf("max family = %+v", fams[1])
	}
	maxes := map[string]float64{}
	for _, s := range fams[1].Samples {
		maxes[s.Labels["class"]] = s.Value
	}
	if math.Abs(maxes["interactive"]-0.002) > 1e-12 || math.Abs(maxes["batch"]-0.5) > 1e-12 {
		t.Fatalf("per-class maxes = %v, want interactive 0.002 / batch 0.5", maxes)
	}
	counts := map[string]float64{}
	sums := map[string]float64{}
	for _, s := range fams[0].Samples {
		switch s.Name {
		case "test_class_seconds_count":
			counts[s.Labels["class"]] = s.Value
		case "test_class_seconds_sum":
			sums[s.Labels["class"]] = s.Value
		case "test_class_seconds_bucket":
			if s.Labels["class"] == "" {
				t.Fatalf("bucket sample without class label: %+v", s)
			}
		}
	}
	if counts["interactive"] != 2 || counts["batch"] != 1 {
		t.Fatalf("per-class counts = %v, want interactive 2 / batch 1", counts)
	}
	if math.Abs(sums["interactive"]-0.003) > 1e-12 || math.Abs(sums["batch"]-0.5) > 1e-12 {
		t.Fatalf("per-class sums = %v", sums)
	}
}

func TestHistogramVecPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("no values", func() {
		NewRegistry().HistogramVec("test_v_seconds", "", "class", nil, 1)
	})
	mustPanic("empty value", func() {
		NewRegistry().HistogramVec("test_v_seconds", "", "class", []string{""}, 1)
	})
	mustPanic("duplicate value", func() {
		NewRegistry().HistogramVec("test_v_seconds", "", "class", []string{"a", "a"}, 1)
	})
}

// TestParseTextLabeledHistogramRejects pins that per-group validation
// still catches broken groups inside a labeled family.
func TestParseTextLabeledHistogramRejects(t *testing.T) {
	cases := map[string]string{
		"group missing sum": "# TYPE h histogram\n" +
			`h_bucket{class="a",le="+Inf"} 1` + "\n" + `h_count{class="a"} 1` + "\n",
		"group count mismatch": "# TYPE h histogram\n" +
			`h_bucket{class="a",le="+Inf"} 1` + "\n" +
			`h_sum{class="a"} 1` + "\n" + `h_count{class="a"} 2` + "\n",
		"group non-cumulative": "# TYPE h histogram\n" +
			`h_bucket{class="a",le="1"} 5` + "\n" + `h_bucket{class="a",le="+Inf"} 3` + "\n" +
			`h_sum{class="a"} 1` + "\n" + `h_count{class="a"} 3` + "\n",
	}
	for name, text := range cases {
		if _, err := ParseText(text); err == nil {
			t.Errorf("%s: parser accepted invalid exposition:\n%s", name, text)
		}
	}
	good := "# TYPE h histogram\n" +
		`h_bucket{class="a",le="+Inf"} 1` + "\n" +
		`h_sum{class="a"} 1` + "\n" + `h_count{class="a"} 1` + "\n" +
		`h_bucket{class="b",le="+Inf"} 9` + "\n" +
		`h_sum{class="b"} 2` + "\n" + `h_count{class="b"} 9` + "\n"
	if _, err := ParseText(good); err != nil {
		t.Errorf("parser rejected valid labeled histogram: %v", err)
	}
}

func TestRegistryEmptyHistogramParses(t *testing.T) {
	r := NewRegistry()
	r.Histogram("test_empty_seconds", "Never recorded.", 2)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseText(b.String()); err != nil {
		t.Fatalf("empty histogram exposition rejected: %v\n%s", err, b.String())
	}
}

func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("test_dup_total", "")
	mustPanic("duplicate", func() { r.Counter("test_dup_total", "") })
	mustPanic("invalid name", func() { r.Counter("9bad", "") })
	mustPanic("empty name", func() { r.Counter("", "") })
	mustPanic("bad rune", func() { r.Counter("has space", "") })
}

func TestFindHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_h_seconds", "", 1)
	if r.FindHistogram("test_h_seconds") != h {
		t.Fatal("FindHistogram missed a registered histogram")
	}
	if r.FindHistogram("nope") != nil {
		t.Fatal("FindHistogram invented a histogram")
	}
}

// TestParseTextRejects pins the failure modes the strict parser exists to
// catch — the exposition bugs this package's registry replaced.
func TestParseTextRejects(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE": "adws_x_total 3\n",
		"separated from TYPE": "# TYPE a counter\n# TYPE b counter\na 1\n",
		"family reopened":     "# TYPE a counter\na 1\n# TYPE a counter\n",
		"duplicate series":    "# TYPE a counter\na 1\na 2\n",
		"duplicate labeled series": "# TYPE a counter\n" +
			`a{w="0"} 1` + "\n" + `a{w="0"} 2` + "\n",
		"histogram without +Inf": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 1` + "\nh_sum 1\nh_count 1\n",
		"histogram non-cumulative": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="+Inf"} 3` + "\nh_sum 1\nh_count 3\n",
		"histogram count mismatch": "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 3` + "\nh_sum 1\nh_count 4\n",
		"histogram missing sum": "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 3` + "\nh_count 3\n",
		"unsorted le": "# TYPE h histogram\n" +
			`h_bucket{le="2"} 1` + "\n" + `h_bucket{le="1"} 1` + "\n" +
			`h_bucket{le="+Inf"} 1` + "\nh_sum 1\nh_count 1\n",
		"suffixed counter sample": "# TYPE a counter\na_bucket 1\n",
		"bad value":               "# TYPE a counter\na x\n",
		"unterminated labels":     "# TYPE a counter\na{w=\"0\" 1\n",
		"bad label name":          "# TYPE a counter\na{9w=\"0\"} 1\n",
	}
	for name, text := range cases {
		if _, err := ParseText(text); err == nil {
			t.Errorf("%s: parser accepted invalid exposition:\n%s", name, text)
		}
	}
}

func TestParseTextAccepts(t *testing.T) {
	text := "# HELP a Things.\n# TYPE a counter\na 1\n" +
		"# TYPE w counter\n" + `w{worker="0"} 1` + "\n" + `w{worker="1"} 2` + "\n" +
		"# TYPE h histogram\n" +
		`h_bucket{le="0.001"} 2` + "\n" + `h_bucket{le="+Inf"} 3` + "\n" +
		"h_sum 0.5\nh_count 3\n"
	fams, err := ParseText(text)
	if err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
	if len(fams) != 3 {
		t.Fatalf("parsed %d families, want 3", len(fams))
	}
	if fams[0].Help != "Things." {
		t.Fatalf("help = %q", fams[0].Help)
	}
}
