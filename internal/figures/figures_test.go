package figures

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"github.com/parlab/adws/internal/sim"
	"github.com/parlab/adws/internal/topology"
	"github.com/parlab/adws/internal/workload"
)

// testOptions runs the figures on a small 16-worker machine so tests stay
// fast; shape assertions are scale-independent.
func testOptions(benches ...string) Options {
	return Options{
		Machine:     topology.TwoLevel16(), // aggregate shared = 32 MB
		SizeFactors: []float64{0.25, 4},
		Reps:        2,
		Seed:        99,
		Benches:     benches,
	}
}

func TestFig16SmallAndLargeShapes(t *testing.T) {
	figs := Fig16(testOptions("dtree"))
	if len(figs) != 1 {
		t.Fatalf("got %d figures", len(figs))
	}
	f := figs[0]
	idx := map[string]int{}
	for i, s := range f.Series {
		idx[s.Label] = i
	}
	small, large := 0, 1

	y := func(label string, i int) float64 { return f.Series[idx[label]].Y[i] }

	// Small working set (fits aggregate shared cache):
	// 1. ADWS beats conventional WS (iterative + hierarchical locality).
	if y("SL-ADWS", small) <= y("SL-WS", small) {
		t.Errorf("small set: SL-ADWS (%.2f) should beat SL-WS (%.2f)",
			y("SL-ADWS", small), y("SL-WS", small))
	}
	// 2. Flattening makes ML-ADWS perform like SL-ADWS (within 15%).
	r := y("ML-ADWS", small) / y("SL-ADWS", small)
	if r < 0.85 || r > 1.15 {
		t.Errorf("small set: ML-ADWS/SL-ADWS = %.2f, want ~1 (flattening)", r)
	}

	// Large working set (4x aggregate):
	// 3. ML-ADWS beats SL-ADWS (shared cache reuse on decision tree).
	if y("ML-ADWS", large) <= y("SL-ADWS", large) {
		t.Errorf("large set: ML-ADWS (%.2f) should beat SL-ADWS (%.2f)",
			y("ML-ADWS", large), y("SL-ADWS", large))
	}
	// 4. ML-ADWS at least matches ML-WS (deterministic mapping on top of
	// ML). On the small test machine with only 4 workers per cache the two
	// can land within a few percent of each other; the clear ordering
	// appears at full scale (see EXPERIMENTS.md, RRM/KDTree at 512 MB).
	if y("ML-ADWS", large) < 0.93*y("ML-WS", large) {
		t.Errorf("large set: ML-ADWS (%.2f) far below ML-WS (%.2f)",
			y("ML-ADWS", large), y("ML-WS", large))
	}
}

func TestFig18MissOrdering(t *testing.T) {
	figs := Fig18(testOptions("dtree"))
	f := figs[0]
	var l3 Series
	for _, s := range f.Series {
		if s.Label == "L3-misses" {
			l3 = s
		}
	}
	at := func(tick string) float64 {
		for i, x := range f.XTicks {
			if x == tick {
				return l3.Y[i]
			}
		}
		t.Fatalf("tick %s missing (have %v)", tick, f.XTicks)
		return 0
	}
	// The paper's Fig. 18 ordering at large sizes: ML ~ serial < SB < SL.
	if at("ML-ADWS") >= at("SL-ADWS") {
		t.Errorf("L3 misses: ML-ADWS (%.3g) should be below SL-ADWS (%.3g)",
			at("ML-ADWS"), at("SL-ADWS"))
	}
	if at("ML-ADWS") > 2.5*at("serial") {
		t.Errorf("L3 misses: ML-ADWS (%.3g) should be near serial (%.3g)",
			at("ML-ADWS"), at("serial"))
	}
}

func TestFig17BreakdownSane(t *testing.T) {
	figs := Fig17(testOptions("quicksort"))
	f := figs[0]
	// Makespan >= busy per worker; idle >= 0; series aligned with ticks.
	var busy, idle, total Series
	for _, s := range f.Series {
		switch s.Label {
		case "busy":
			busy = s
		case "idle":
			idle = s
		case "total(makespan)":
			total = s
		}
	}
	for i := range f.XTicks {
		if busy.Y[i] <= 0 {
			t.Errorf("%s: busy %v", f.XTicks[i], busy.Y[i])
		}
		if idle.Y[i] < 0 {
			t.Errorf("%s: negative idle %v", f.XTicks[i], idle.Y[i])
		}
		if total.Y[i] < busy.Y[i]*0.99 {
			t.Errorf("%s: makespan %v below per-worker busy %v", f.XTicks[i], total.Y[i], busy.Y[i])
		}
	}
}

// fig19Endpoints runs Fig. 19 on the first and last alpha of the paper's
// sweep only. Every alpha builds its own instance and engines, so these
// points are identical to the full sweep's (adwsbench -figure 19) at a
// fraction of the cost; the assertions below need no other point.
var fig19Endpoints = sync.OnceValue(func() []Figure {
	full := Fig19Alphas
	Fig19Alphas = []float64{full[0], full[len(full)-1]}
	defer func() { Fig19Alphas = full }()
	return Fig19(testOptions())
})

func TestFig19HintSensitivity(t *testing.T) {
	figs := fig19Endpoints()
	if len(figs) != 2 {
		t.Fatalf("got %d figures", len(figs))
	}
	small := figs[0]
	idx := map[string]int{}
	for i, s := range small.Series {
		idx[s.Label] = i
	}
	hinted := small.Series[idx["SL-ADWS"]]
	noHint := small.Series[idx["SL-ADWS(w/o hint)"]]
	// At alpha=1 the 1:1 guess is exact: hinted ~ no-hint.
	if d := hinted.Y[0] - noHint.Y[0]; d < -0.1 || d > 0.1 {
		t.Errorf("alpha=1: hinted %.2f vs no-hint %.2f should coincide", hinted.Y[0], noHint.Y[0])
	}
	alpha := hinted.X[1]
	// At large alpha the hinted version must beat the no-hint version.
	if hinted.Y[1] <= noHint.Y[1] {
		t.Errorf("alpha=%g: hinted %.2f should beat no-hint %.2f", alpha, hinted.Y[1], noHint.Y[1])
	}
	// ...and the no-hint version must not be far below SL-WS (improvement
	// >= -0.15), the paper's tolerance claim.
	if noHint.Y[1] < -0.15 {
		t.Errorf("alpha=%g: no-hint improvement over SL-WS = %.2f, want >= -0.15", alpha, noHint.Y[1])
	}
}

// TestFig19AlphaSubset checks that a trimmed alpha sweep yields one point
// per alpha in every series of both figures, at the alphas asked for.
func TestFig19AlphaSubset(t *testing.T) {
	want := []float64{Fig19Alphas[0], Fig19Alphas[len(Fig19Alphas)-1]}
	for _, f := range fig19Endpoints() {
		for _, s := range f.Series {
			if len(s.X) != len(want) || s.X[0] != want[0] || s.X[1] != want[1] || len(s.Y) != len(want) {
				t.Errorf("%s/%s: points at %v (%d values), want %v", f.ID, s.Label, s.X, len(s.Y), want)
			}
		}
	}
}

func TestFig20NoHintPenalty(t *testing.T) {
	o := testOptions("quicksort", "dtree")
	o.Benches = nil // Fig20 uses its own bench list; restrict via var below
	old := Fig20Benches
	Fig20Benches = []string{"quicksort", "dtree"}
	defer func() { Fig20Benches = old }()
	figs := Fig20(o)
	if len(figs) != 2 {
		t.Fatalf("got %d figures", len(figs))
	}
	for _, f := range figs {
		for _, s := range f.Series {
			for i, yv := range s.Y {
				// No-hint penalties are bounded: not catastrophically bad.
				if yv < -1.5 {
					t.Errorf("%s/%s[%d] = %.2f: no-hint run catastrophically slow", f.ID, s.Label, i, yv)
				}
			}
		}
	}
}

func TestFig21NUMAImprovement(t *testing.T) {
	m := topology.OakbridgeCX() // needs 2 NUMA nodes
	o := Options{
		Machine:     m,
		SizeFactors: []float64{2},
		Reps:        2,
		Seed:        3,
		Benches:     []string{"heat2d"},
	}
	figs := Fig21(o)
	f := figs[0]
	// Heat2D is regular and memory-bound: local allocation must help
	// SL-ADWS clearly (the paper reports ~20%+).
	var sl Series
	for _, s := range f.Series {
		if s.Label == "SL-ADWS" {
			sl = s
		}
	}
	if len(sl.Y) != 1 {
		t.Fatalf("series length %d", len(sl.Y))
	}
	if sl.Y[0] < 0.03 {
		t.Errorf("heat2d local-alloc improvement for SL-ADWS = %.3f, want > 0.03", sl.Y[0])
	}
}

func TestRenderAndCSV(t *testing.T) {
	f := Figure{
		ID: "x", Title: "t", XLabel: "x", YLabel: "y",
		XTicks: []string{"a", "b"},
		Series: []Series{{Label: "s1", X: []float64{0, 1}, Y: []float64{1.5, 2.5}}},
		Notes:  []string{"note"},
	}
	var buf bytes.Buffer
	f.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== x: t ==", "s1", "a", "2.5", "# note"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q in:\n%s", want, out)
		}
	}
	buf.Reset()
	f.CSV(&buf)
	if !strings.Contains(buf.String(), "x,s1") || !strings.Contains(buf.String(), "b,2.5") {
		t.Errorf("CSV output wrong:\n%s", buf.String())
	}
}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	Table1(topology.OakbridgeCX(), &buf)
	out := buf.String()
	for _, want := range []string{"56", "37.6MB", "75.2MB", "NUMA nodes        2"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q:\n%s", want, out)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Machine == nil || o.Reps != 2 || len(o.SizeFactors) != 8 {
		t.Errorf("defaults wrong: %+v", o)
	}
	if !o.benchSelected("anything") {
		t.Error("empty bench filter should select all")
	}
	o.Benches = []string{"rrm"}
	if o.benchSelected("dtree") || !o.benchSelected("rrm") {
		t.Error("bench filter wrong")
	}
}

// Guard against accidental workload registry drift breaking the figures.
func TestRegistryCoversFig20(t *testing.T) {
	for _, b := range Fig20Benches {
		if _, ok := workload.ByName(b); !ok {
			t.Errorf("Fig20 bench %q not in registry", b)
		}
	}
	_ = sim.Modes
}

func TestFigAutoTracksBest(t *testing.T) {
	o := testOptions("dtree")
	figs := FigAuto(o)
	if len(figs) != 1 {
		t.Fatalf("got %d figures", len(figs))
	}
	f := figs[0]
	idx := map[string]int{}
	for i, s := range f.Series {
		idx[s.Label] = i
	}
	sl := f.Series[idx["SL-ADWS"]]
	ml := f.Series[idx["ML-ADWS"]]
	auto := f.Series[idx["Auto-ADWS"]]
	for i := range auto.Y {
		best := sl.Y[i]
		if ml.Y[i] > best {
			best = ml.Y[i]
		}
		// Auto pays ~10% profiling cost; it must stay within 15% of the
		// better variant and never fall to the worse one when they differ
		// by more than the profiling cost.
		if auto.Y[i] < best/1.15 {
			t.Errorf("point %d: auto %.2f far below best %.2f", i, auto.Y[i], best)
		}
	}
}
