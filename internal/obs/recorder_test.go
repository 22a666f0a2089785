package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/parlab/adws/internal/trace"
)

// TestWantsFilter pins the hot-path filter: rare scheduler transitions
// pass at any depth, task spans and waits only at depth <=
// DefaultDepthLimit, and a nil recorder wants nothing.
func TestWantsFilter(t *testing.T) {
	r := NewRecorder(Config{Workers: 2})
	always := []trace.EventType{
		trace.EvStealAttempt, trace.EvStealSuccess, trace.EvStealFail,
		trace.EvMigration, trace.EvPark, trace.EvWake, trace.EvBoundary,
	}
	for _, et := range always {
		if !r.Wants(et, 99) {
			t.Errorf("Wants(%v, 99) = false, want true (always mask)", et)
		}
	}
	shallow := []trace.EventType{
		trace.EvTaskBegin, trace.EvTaskEnd, trace.EvWaitEnter, trace.EvWaitExit,
	}
	for _, et := range shallow {
		if !r.Wants(et, 0) || !r.Wants(et, 1) {
			t.Errorf("Wants(%v, <=1) = false, want true", et)
		}
		if r.Wants(et, 2) {
			t.Errorf("Wants(%v, 2) = true, want false (beyond depth limit)", et)
		}
	}
	var nilRec *Recorder
	if nilRec.Wants(trace.EvPark, 0) {
		t.Error("nil recorder Wants = true")
	}
}

// TestDumpMergesAndConsumes pins Dump: events from every worker merged
// time-sorted, sequence numbers advancing, and destructiveness (the
// second dump starts an empty window).
func TestDumpMergesAndConsumes(t *testing.T) {
	r := NewRecorder(Config{Workers: 2, Capacity: 8})
	r.Record(0, trace.Event{Type: trace.EvTaskBegin, Time: 30, Worker: 0})
	r.Record(1, trace.Event{Type: trace.EvStealSuccess, Time: 10, Worker: 1})
	r.Record(0, trace.Event{Type: trace.EvTaskEnd, Time: 50, Worker: 0})

	if got := r.LastNS(0); got != 50 {
		t.Errorf("LastNS(0) = %d, want 50", got)
	}
	if got := r.LastNS(1); got != 10 {
		t.Errorf("LastNS(1) = %d, want 10", got)
	}

	d := r.Dump("manual", -1, nil)
	if d.Seq != 1 || d.Reason != "manual" || d.Workers != 2 {
		t.Fatalf("dump header = %+v", d)
	}
	if len(d.Events) != 3 {
		t.Fatalf("dump has %d events, want 3", len(d.Events))
	}
	for i := 1; i < len(d.Events); i++ {
		if d.Events[i].Time < d.Events[i-1].Time {
			t.Fatalf("events not time-sorted: %v", d.Events)
		}
	}
	if r.LastDump() != d {
		t.Error("LastDump does not return the dump")
	}

	d2 := r.Dump("manual", -1, nil)
	if d2.Seq != 2 || len(d2.Events) != 0 {
		t.Errorf("second dump seq=%d events=%d, want 2/0 (cut is destructive)", d2.Seq, len(d2.Events))
	}
}

// TestDumpJSONForms pins the dump's compact JSON and Chrome exports.
func TestDumpJSONForms(t *testing.T) {
	r := NewRecorder(Config{Workers: 1})
	r.Record(0, trace.Event{Type: trace.EvTaskBegin, Time: 5, Worker: 0, Task: 7, Depth: 1})
	snap := &SchedSnapshot{TakenNS: 99, Workers: []WorkerState{{Worker: 0, Tasks: 1}}}
	d := r.Dump(ReasonWorkerStall, 0, snap)

	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Seq    int64  `json:"seq"`
		Reason string `json:"reason"`
		Worker int    `json:"worker"`
		Sched  *struct {
			TakenNS int64 `json:"taken_ns"`
		} `json:"sched"`
		Events []map[string]any `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("dump JSON does not parse: %v\n%s", err, buf.String())
	}
	if decoded.Reason != ReasonWorkerStall || decoded.Worker != 0 {
		t.Errorf("decoded header = %+v", decoded)
	}
	if decoded.Sched == nil || decoded.Sched.TakenNS != 99 {
		t.Errorf("sched snapshot missing or wrong: %+v", decoded.Sched)
	}
	if len(decoded.Events) != 1 || decoded.Events[0]["t"] != "task-begin" {
		t.Errorf("compact events = %v", decoded.Events)
	}

	buf.Reset()
	if err := d.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Errorf("chrome export missing traceEvents: %s", buf.String())
	}
}
