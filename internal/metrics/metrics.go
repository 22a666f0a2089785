// Package metrics is the repo's stdlib-only metrics subsystem: padded
// atomic counters and gauges, log-linear latency histograms with
// per-worker shards, and a Registry that renders Prometheus text
// exposition (format 0.0.4) with full _bucket/_sum/_count series.
//
// The recording paths — Counter.Inc/Add, Gauge.Set, Histogram.Record —
// take no locks and allocate nothing, and are sanctioned on
// //adws:hotpath functions (adwsvet's hotpath analyzer verifies they stay
// atomic-only). The wiring contract matches the tracer's: a nil *Metrics
// struct in runtime/server config costs one pointer check per site.
// Rendering (WriteText) is the slow path and may take locks.
package metrics

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
)

// padded is an atomic counter cell owning a whole cache line, so adjacent
// registered counters never false-share (layout enforced by adwsvet's
// atomicpad analyzer and pinned by pad_test.go).
//
//adws:padded
type padded struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing padded atomic counter.
type Counter struct {
	cell       padded //adws:padded
	name, help string
}

// Inc adds one.
//
//adws:hotpath
func (c *Counter) Inc() { c.cell.v.Add(1) }

// Add adds n (which must be non-negative to keep the counter monotonic).
//
//adws:hotpath
func (c *Counter) Add(n int64) { c.cell.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.cell.v.Load() }

// Gauge is a settable padded atomic gauge holding a float64.
type Gauge struct {
	cell       padded //adws:padded
	name, help string
}

// Set stores v.
//
//adws:hotpath
func (g *Gauge) Set(v float64) { g.cell.v.Store(int64(math.Float64bits(v))) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(uint64(g.cell.v.Load())) }

// Labeled is one sample of a single-label counter family rendered by
// CounterVecFunc.
type Labeled struct {
	Label string
	Value float64
}

// Label is one name/value pair of a MultiLabeled sample.
type Label struct {
	Name, Value string
}

// MultiLabeled is one sample of a multi-label Func family rendered by
// CounterMultiFunc or GaugeMultiFunc. Labels are rendered in order.
type MultiLabeled struct {
	Labels []Label
	Value  float64
}

// vecHist is one member of a labeled histogram family: the histogram
// recording samples for one value of the family's partition label.
type vecHist struct {
	value string
	hist  *Histogram
}

// entry is one registered family, rendered in registration order.
type entry struct {
	name, help string
	// typ is the Prometheus TYPE: "counter", "gauge", or "histogram".
	typ string
	// Exactly one of the following is set.
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
	histVec     []vecHist
	counterFn   func() float64
	gaugeFn     func() float64
	vecLabel    string
	counterVecF func() []Labeled
	multiF      func() []MultiLabeled
}

// Registry holds registered metric families and renders them as
// Prometheus text exposition. Registration is not thread-safe and must
// finish before the first WriteText; recording and rendering after that
// are safe concurrently.
type Registry struct {
	entries  []entry
	byName   map[string]*Histogram
	onRender []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Histogram)}
}

func (r *Registry) register(e entry) {
	if !validName(e.name) {
		panic("metrics: invalid metric name " + strconv.Quote(e.name))
	}
	for i := range r.entries {
		if r.entries[i].name == e.name {
			panic("metrics: duplicate metric name " + e.name)
		}
	}
	r.entries = append(r.entries, e)
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(entry{name: name, help: help, typ: "counter", counter: c})
	return c
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(entry{name: name, help: help, typ: "gauge", gauge: g})
	return g
}

// Histogram registers and returns a histogram with the given shard count
// (clamped to at least 1). Callers with per-worker recorders pass the
// worker count and use Record(worker, v); others pass a small count and
// use RecordAny.
func (r *Registry) Histogram(name, help string, shards int) *Histogram {
	if shards < 1 {
		shards = 1
	}
	h := &Histogram{name: name, help: help, shards: make([]histShard, shards)}
	r.register(entry{name: name, help: help, typ: "histogram", hist: h})
	r.byName[name] = h
	return h
}

// HistogramVec registers a histogram family partitioned by one label: one
// independent sharded histogram per label value, rendered as a single
// family whose _bucket/_sum/_count series all carry the label. The
// returned map is keyed by label value; callers record into the member
// for the value they observed (e.g. a job's priority class). Values must
// be non-empty and unique; the label set is fixed at registration, like
// every other family.
func (r *Registry) HistogramVec(name, help, label string, values []string, shards int) map[string]*Histogram {
	if len(values) == 0 {
		panic("metrics: HistogramVec " + name + " needs at least one label value")
	}
	if shards < 1 {
		shards = 1
	}
	vec := make([]vecHist, 0, len(values))
	out := make(map[string]*Histogram, len(values))
	for _, v := range values {
		if v == "" {
			panic("metrics: HistogramVec " + name + " has an empty label value")
		}
		if _, dup := out[v]; dup {
			panic("metrics: HistogramVec " + name + " repeats label value " + strconv.Quote(v))
		}
		h := &Histogram{name: name, help: help, shards: make([]histShard, shards)}
		vec = append(vec, vecHist{value: v, hist: h})
		out[v] = h
	}
	r.register(entry{name: name, help: help, typ: "histogram", vecLabel: label, histVec: vec})
	return out
}

// CounterFunc registers a counter family whose value is read from fn at
// render time. Use for values maintained elsewhere (runtime Stats).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(entry{name: name, help: help, typ: "counter", counterFn: fn})
}

// GaugeFunc registers a gauge family read from fn at render time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(entry{name: name, help: help, typ: "gauge", gaugeFn: fn})
}

// CounterVecFunc registers a single-label counter family whose samples
// are read from fn at render time (e.g. per-worker totals).
func (r *Registry) CounterVecFunc(name, help, label string, fn func() []Labeled) {
	r.register(entry{name: name, help: help, typ: "counter", vecLabel: label, counterVecF: fn})
}

// CounterMultiFunc registers a multi-label counter family whose samples
// are read from fn at render time (e.g. per-pool, per-verdict routing
// totals). Every sample must carry the same label names; label values
// must make each sample's series unique.
func (r *Registry) CounterMultiFunc(name, help string, fn func() []MultiLabeled) {
	r.register(entry{name: name, help: help, typ: "counter", multiF: fn})
}

// GaugeMultiFunc is CounterMultiFunc's gauge twin.
func (r *Registry) GaugeMultiFunc(name, help string, fn func() []MultiLabeled) {
	r.register(entry{name: name, help: help, typ: "gauge", multiF: fn})
}

// OnRender registers fn to run at the start of every WriteText, before
// any Func metric is read. Use it to take one coherent snapshot that
// several Func metrics then share (e.g. a single InFlight() read feeding
// both the queued and running gauges).
func (r *Registry) OnRender(fn func()) {
	r.onRender = append(r.onRender, fn)
}

// FindHistogram returns the registered histogram with the given name, or
// nil.
func (r *Registry) FindHistogram(name string) *Histogram { return r.byName[name] }

// WriteText renders every registered family as Prometheus text
// exposition format 0.0.4. Histogram sample values are converted from
// recorded nanoseconds to seconds. Safe to call while recorders run.
func (r *Registry) WriteText(w io.Writer) error {
	for _, fn := range r.onRender {
		fn()
	}
	var b strings.Builder
	for i := range r.entries {
		e := &r.entries[i]
		if e.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", e.name, escapeHelp(e.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", e.name, e.typ)
		switch {
		case e.counter != nil:
			fmt.Fprintf(&b, "%s %s\n", e.name, formatValue(float64(e.counter.Value())))
		case e.gauge != nil:
			fmt.Fprintf(&b, "%s %s\n", e.name, formatValue(e.gauge.Value()))
		case e.counterFn != nil:
			fmt.Fprintf(&b, "%s %s\n", e.name, formatValue(e.counterFn()))
		case e.gaugeFn != nil:
			fmt.Fprintf(&b, "%s %s\n", e.name, formatValue(e.gaugeFn()))
		case e.counterVecF != nil:
			for _, s := range e.counterVecF() {
				fmt.Fprintf(&b, "%s{%s=%q} %s\n", e.name, e.vecLabel, s.Label, formatValue(s.Value))
			}
		case e.multiF != nil:
			for _, s := range e.multiF() {
				b.WriteString(e.name)
				b.WriteByte('{')
				for i, l := range s.Labels {
					if i > 0 {
						b.WriteByte(',')
					}
					fmt.Fprintf(&b, "%s=%q", l.Name, l.Value)
				}
				fmt.Fprintf(&b, "} %s\n", formatValue(s.Value))
			}
		case e.hist != nil:
			s := e.hist.Snapshot()
			writeHistogram(&b, e.name, "", s)
			writeHistogramMax(&b, e.name, nil, []Snapshot{s})
		case e.histVec != nil:
			labels := make([]string, len(e.histVec))
			snaps := make([]Snapshot, len(e.histVec))
			for i, vh := range e.histVec {
				labels[i] = fmt.Sprintf("%s=%q", e.vecLabel, vh.value)
				snaps[i] = vh.hist.Snapshot()
				writeHistogram(&b, e.name, labels[i], snaps[i])
			}
			writeHistogramMax(&b, e.name, labels, snaps)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram's cumulative _bucket series (only
// boundaries whose bucket is occupied, which is a valid subset per the
// exposition format, plus the mandatory +Inf), then _sum and _count.
// labels, when non-empty, is a rendered label list (e.g. `class="batch"`)
// prefixed to every series' label set — the labeled member of a
// HistogramVec family.
func writeHistogram(b *strings.Builder, name, labels string, s Snapshot) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum int64
	for i := 0; i < NumBuckets-1; i++ {
		if s.Counts[i] == 0 {
			continue
		}
		cum += s.Counts[i]
		le := formatValue(BucketUpper(i) / 1e9)
		fmt.Fprintf(b, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, le, cum)
	}
	fmt.Fprintf(b, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, s.Count)
	if labels == "" {
		fmt.Fprintf(b, "%s_sum %s\n", name, formatValue(float64(s.Sum)/1e9))
		fmt.Fprintf(b, "%s_count %d\n", name, s.Count)
	} else {
		fmt.Fprintf(b, "%s_sum{%s} %s\n", name, labels, formatValue(float64(s.Sum)/1e9))
		fmt.Fprintf(b, "%s_count{%s} %d\n", name, labels, s.Count)
	}
}

// writeHistogramMax renders the companion <name>_max gauge family: the
// largest value each histogram (or each labeled member) has observed, in
// seconds. Internal quantile readers already clamp the open top bucket
// to the observed maximum (Snapshot.Quantile); this family hands
// external scrapers the same bound, so a p99 estimated from the bucket
// boundaries can be clamped instead of inflated by one outlier landing
// in a wide bucket. labels is nil for a plain histogram (one unlabeled
// sample) and parallel to snaps for a vec family.
func writeHistogramMax(b *strings.Builder, name string, labels []string, snaps []Snapshot) {
	fmt.Fprintf(b, "# TYPE %s_max gauge\n", name)
	for i, s := range snaps {
		if labels == nil {
			fmt.Fprintf(b, "%s_max %s\n", name, formatValue(float64(s.Max)/1e9))
		} else {
			fmt.Fprintf(b, "%s_max{%s} %s\n", name, labels[i], formatValue(float64(s.Max)/1e9))
		}
	}
}

// formatValue renders a float the way Prometheus clients do: shortest
// representation that round-trips.
func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
