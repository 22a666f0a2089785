package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// span is one harness-side interval at a layer boundary. Times are
// nanoseconds since the run's epoch. Spans of one operation share Op;
// Parent is the index of the causing span in the log, -1 for a root.
type span struct {
	Name   string           `json:"name"`
	Op     int64            `json:"op"`
	Parent int              `json:"parent"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// spanLog keeps spans in memory until the run ends. It is filled from one
// goroutine after the timed region, from stamps taken inside it, so that
// recording costs the timed region two clock reads per boundary and no
// allocation. A nil *spanLog records nothing.
type spanLog struct {
	spans []span
}

// add appends a span and returns its index.
func (l *spanLog) add(s span) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, s)
	return len(l.spans) - 1
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its direct children cover (overlapping children are
// counted once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(children[i], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		s, e := x[0], x[1]
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// closure is, per root span, the summed self time of its descendants as a
// share of the root's duration: 1 when the layer spans account for the
// whole operation. It returns the median over root spans.
func (l *spanLog) closure() float64 {
	if l == nil || len(l.spans) == 0 {
		return 1
	}
	self := selfTimes(l.spans)
	root := make([]int, len(l.spans)) // root ancestor of each span
	sum := make(map[int]int64)
	for i, s := range l.spans {
		if s.Parent < 0 {
			root[i] = i
			continue
		}
		root[i] = root[s.Parent] // parents are logged before children
		sum[root[i]] += self[i]
	}
	var ratios []float64
	for i, s := range l.spans {
		if s.Parent >= 0 {
			continue
		}
		if _, ok := sum[i]; !ok {
			ratios = append(ratios, 1) // a leaf root accounts for itself
		} else if d := s.End - s.Start; d > 0 {
			ratios = append(ratios, float64(sum[i])/float64(d))
		}
	}
	return median(ratios)
}

// traceFile is what -trace writes to bench/out/trace_<workload>.json.
type traceFile struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Host     hostInfo `json:"host"`
	Spans    []span   `json:"spans"`
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
