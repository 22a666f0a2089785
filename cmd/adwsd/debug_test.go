package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/parlab/adws"
	"github.com/parlab/adws/internal/trace"
	"github.com/parlab/adws/internal/workload"
)

// get fetches url and returns status and body.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestDebugSchedGolden pins the /debug/sched JSON shape against
// testdata/debug_sched.golden. Live values (timestamps, counters, parked
// bits) are normalized to fixed placeholders so the golden file pins the
// structure — pool nesting and every per-worker key — not the racing
// scheduler state.
func TestDebugSchedGolden(t *testing.T) {
	p0, err := adws.NewPool(adws.WithScheduler(adws.ADWS), adws.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer p0.Close()
	p1, err := adws.NewPool(adws.WithScheduler(adws.WorkStealing), adws.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	c, err := adws.ClusterOf(adws.RouteRoundRobin, p0, p1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newDaemon(c, false).handler())
	defer ts.Close()

	p0.Run(func(c *adws.Ctx) {}) // touch the scheduler so counters are live

	code, body := get(t, ts.URL+"/debug/sched")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/sched: status %d: %s", code, body)
	}
	var doc struct {
		Pools []map[string]any `json:"pools"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("response does not parse: %v\n%s", err, body)
	}
	if len(doc.Pools) != 2 {
		t.Fatalf("got %d pools, want 2", len(doc.Pools))
	}
	for _, pool := range doc.Pools {
		pool["taken_ns"] = float64(0)
		for _, wv := range pool["workers"].([]any) {
			w := wv.(map[string]any)
			for k := range w {
				switch k {
				case "worker":
				case "parked":
					w[k] = false
				case "last_event_age_ns":
					w[k] = float64(-1)
				default:
					w[k] = float64(0)
				}
			}
		}
	}
	norm, err := json.MarshalIndent(map[string]any{"pools": doc.Pools}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	norm = append(norm, '\n')

	golden := filepath.Join("testdata", "debug_sched.golden")
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, norm, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (rerun with UPDATE_GOLDEN=1 to regenerate)", err)
	}
	if string(norm) != string(want) {
		t.Errorf("normalized /debug/sched drifted from %s:\ngot:\n%s\nwant:\n%s\n(rerun with UPDATE_GOLDEN=1 if intended)",
			golden, norm, want)
	}

	// ?pool=1 narrows to one pool; an out-of-range pool is a 400.
	code, body = get(t, ts.URL+"/debug/sched?pool=1")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/sched?pool=1: status %d", code)
	}
	if err := json.Unmarshal(body, &doc); err != nil || len(doc.Pools) != 1 {
		t.Fatalf("?pool=1 returned %d pools (err %v)", len(doc.Pools), err)
	}
	if got := doc.Pools[0]["pool"].(float64); got != 1 {
		t.Errorf("?pool=1 returned pool %v", got)
	}
	if len(doc.Pools[0]["workers"].([]any)) != 1 {
		t.Errorf("pool 1 reports %d workers, want 1", len(doc.Pools[0]["workers"].([]any)))
	}
	if code, _ := get(t, ts.URL+"/debug/sched?pool=9"); code != http.StatusBadRequest {
		t.Errorf("GET /debug/sched?pool=9: status %d, want 400", code)
	}
}

// TestDebugFlight pins /debug/fr: the compact dump form, the Chrome
// trace form, destructive cuts, and the 404 on a recorder-disabled pool.
func TestDebugFlight(t *testing.T) {
	p, err := adws.NewPool(adws.WithScheduler(adws.ADWS), adws.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	off, err := adws.NewPool(adws.WithWorkers(1), adws.WithFlightRecorder(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	c, err := adws.ClusterOf(adws.RouteRoundRobin, p, off)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newDaemon(c, false).handler())
	defer ts.Close()

	p.Run(func(c *adws.Ctx) {}) // leave a root task span in the rings

	code, body := get(t, ts.URL+"/debug/fr")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/fr: status %d: %s", code, body)
	}
	var dump struct {
		Seq    int64            `json:"seq"`
		Reason string           `json:"reason"`
		Sched  *json.RawMessage `json:"sched"`
		Events []map[string]any `json:"events"`
	}
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("dump does not parse: %v\n%s", err, body)
	}
	if dump.Reason != "http" || dump.Seq < 1 {
		t.Errorf("dump header = %+v", dump)
	}
	if dump.Sched == nil {
		t.Error("dump has no scheduler snapshot")
	}
	if len(dump.Events) == 0 {
		t.Error("dump window is empty after a job ran")
	}

	code, body = get(t, ts.URL+"/debug/fr?format=chrome")
	if code != http.StatusOK || !strings.Contains(string(body), "traceEvents") {
		t.Errorf("chrome form: status %d body %.80s", code, body)
	}

	if code, _ := get(t, ts.URL+"/debug/fr?pool=1"); code != http.StatusNotFound {
		t.Errorf("GET /debug/fr on disabled pool: status %d, want 404", code)
	}
}

// TestHealthzWatchdogStall is the injected-stall integration test: a
// 1-worker pool with an aggressive watchdog runs a job that wedges its
// only worker while a second job queues behind it. The watchdog must
// fire worker_stall naming worker 0, /healthz must degrade to 503 with
// the verdict in its JSON, the auto-dump must contain the stall window
// (the wedged job's task-begin and the scheduler state showing the
// worker pinned on it), and everything must recover once the job
// unblocks.
func TestHealthzWatchdogStall(t *testing.T) {
	p, err := adws.NewPool(
		adws.WithScheduler(adws.ADWS),
		adws.WithWorkers(1),
		adws.WithAdmission(1, 4),
		adws.WithWatchdog(adws.WatchdogConfig{StallAfter: 10 * time.Millisecond}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c, err := adws.ClusterOf(adws.RouteRoundRobin, p)
	if err != nil {
		t.Fatal(err)
	}
	d := newDaemon(c, false)
	release := make(chan struct{})
	d.workloads["block"] = func(n int, seed uint64) (workload.Job, error) {
		return workload.Job{Name: "block", N: n, Work: 1,
			Body: func(c *adws.Ctx) error { <-release; return nil }}, nil
	}
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	// healthy first: watchdog status present, 200.
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthy /healthz: status %d: %s", code, body)
	}
	var health struct {
		Status   string `json:"status"`
		Watchdog []struct {
			Pool       int    `json:"pool"`
			OK         bool   `json:"ok"`
			LastReason string `json:"last_reason"`
			LastWorker int    `json:"last_worker"`
		} `json:"watchdog"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatalf("healthz does not parse: %v\n%s", err, body)
	}
	if len(health.Watchdog) != 1 || !health.Watchdog[0].OK {
		t.Fatalf("healthy watchdog block = %+v", health.Watchdog)
	}

	// Wedge the only worker and queue a second job behind it.
	for i, want := range []int{http.StatusAccepted, http.StatusAccepted} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json",
			strings.NewReader(`{"workload": "block"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("block job %d: status %d, want %d", i, resp.StatusCode, want)
		}
	}

	// The watchdog must fire within a few StallAfter periods.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body = get(t, ts.URL+"/healthz")
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("watchdog never fired; last /healthz %d: %s", code, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "stalled" {
		t.Errorf("degraded status = %q, want stalled", health.Status)
	}
	wd := health.Watchdog[0]
	if wd.OK || wd.LastReason != adws.WatchdogWorkerStall || wd.LastWorker != 0 {
		t.Errorf("degraded watchdog block = %+v, want worker_stall on worker 0", wd)
	}

	// The auto-dump holds the stall window: the wedged job's task-begin
	// and a scheduler snapshot showing worker 0 unparked on a job.
	dump := p.FlightRecorder().LastDump()
	if dump == nil {
		t.Fatal("watchdog trigger left no dump")
	}
	if dump.Reason != adws.WatchdogWorkerStall || dump.Worker != 0 {
		t.Errorf("dump = reason %q worker %d, want worker_stall/0", dump.Reason, dump.Worker)
	}
	var sawBegin bool
	for _, ev := range dump.Events {
		if ev.Type == trace.EvTaskBegin && ev.Worker == 0 {
			sawBegin = true
		}
	}
	if !sawBegin {
		t.Errorf("dump window has no task-begin for worker 0: %v", dump.Events)
	}
	if dump.Sched == nil {
		t.Fatal("dump has no scheduler snapshot")
	}
	ws := dump.Sched.Workers[0]
	if ws.Parked || ws.Job == 0 {
		t.Errorf("dump snapshot worker 0 = %+v, want unparked on a job", ws)
	}

	// Unblock; the queue drains, the verdict clears, /healthz recovers.
	close(release)
	for {
		code, body = get(t, ts.URL+"/healthz")
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never recovered; last %d: %s", code, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if trig := p.Watchdog().Status().Triggers[adws.WatchdogWorkerStall]; trig < 1 {
		t.Errorf("stall trigger counter = %d, want >= 1", trig)
	}
}
