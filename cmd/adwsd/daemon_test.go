package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/parlab/adws"
	"github.com/parlab/adws/internal/metrics"
	"github.com/parlab/adws/internal/workload"
)

// TestDaemonEndToEnd drives the full job-serving stack over HTTP: a
// 4-worker ADWS pool with a small admission window (2 running, 4 queued)
// serving concurrent submissions with mixed hints. Two blocker jobs pin
// both in-flight slots so that 8 concurrent submissions split
// deterministically into 4 queued and 4 ErrOverloaded fast-rejects; after
// release, every accepted job must complete with a verified result and
// populated per-job stats, and the rejected workloads resubmit cleanly.
func TestDaemonEndToEnd(t *testing.T) {
	pool, err := adws.NewPool(
		adws.WithScheduler(adws.ADWS),
		adws.WithWorkers(4),
		adws.WithAdmission(2, 4),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	c, err := adws.ClusterOf(adws.RouteRoundRobin, pool)
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

	post := func(body string) (int, jobResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var jr jobResponse
		if resp.StatusCode == http.StatusAccepted {
			if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, jr
	}

	// Occupy both in-flight slots. The admission layer counts them as
	// running immediately, regardless of when a worker picks them up.
	for i := 0; i < 2; i++ {
		if code, _ := post(`{"workload": "block"}`); code != http.StatusAccepted {
			t.Fatalf("block job %d: status %d, want 202", i, code)
		}
	}
	if queued, running := pool.InFlight(); queued != 0 || running != 2 {
		t.Fatalf("after blockers: queued=%d running=%d, want 0, 2", queued, running)
	}

	// 8 concurrent submissions, mixed workloads and hints. Both slots are
	// pinned and the queue holds 4, so exactly 4 are accepted (queued) and
	// 4 fast-reject with ErrOverloaded (503).
	reqs := []string{
		`{"workload": "quicksort", "n": 20000, "work": 3}`,
		`{"workload": "fib", "n": 22, "work": 1}`,
		`{"workload": "matmul", "n": 48, "work": 2, "size": 27648}`,
		`{"workload": "rrm", "n": 20000, "work": 1}`,
		`{"workload": "heat2d", "n": 64, "work": 2}`,
		`{"workload": "kdtree", "n": 10000, "work": 3}`,
		`{"workload": "quicksort", "n": 10000, "seed": 7}`,
		`{"workload": "fib", "n": 20, "work": 0.5}`,
	}
	var mu sync.Mutex
	var accepted []int64
	var rejected []string
	var wg sync.WaitGroup
	for _, req := range reqs {
		req := req
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, jr := post(req)
			mu.Lock()
			defer mu.Unlock()
			switch code {
			case http.StatusAccepted:
				accepted = append(accepted, jr.ID)
			case http.StatusServiceUnavailable:
				rejected = append(rejected, req)
			default:
				t.Errorf("POST %s: status %d", req, code)
			}
		}()
	}
	wg.Wait()
	if len(accepted) != 4 || len(rejected) != 4 {
		t.Fatalf("accepted %d rejected %d, want 4 and 4", len(accepted), len(rejected))
	}

	// Release the blockers; the queue drains and every accepted job runs.
	close(release)
	waitDone := func(ids []int64) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		for _, id := range ids {
			j, ok := pool.Job(id)
			if !ok {
				t.Fatalf("job %d not retained", id)
			}
			if err := j.Wait(ctx); err != nil {
				t.Fatalf("job %d: %v", id, err)
			}
		}
	}
	waitDone(accepted)

	// The rejected workloads resubmit cleanly once the overload clears.
	var resubmitted []int64
	for _, req := range rejected {
		code, jr := post(req)
		if code != http.StatusAccepted {
			t.Fatalf("resubmit %s: status %d, want 202", req, code)
		}
		resubmitted = append(resubmitted, jr.ID)
	}
	waitDone(resubmitted)

	// Every completed job carries a verified result (body self-checks
	// report through Err) and populated per-job stats.
	for _, id := range append(append([]int64{}, accepted...), resubmitted...) {
		resp, err := http.Get(fmt.Sprintf("%s/jobs/%d", ts.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		var jr jobResponse
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if jr.State != "done" || jr.Error != "" {
			t.Errorf("job %d: state %q error %q, want done", id, jr.State, jr.Error)
		}
		if jr.Tasks <= 0 {
			t.Errorf("job %d: tasks = %d, want positive", id, jr.Tasks)
		}
		if !(jr.RangeLo < jr.RangeHi) || jr.RangeLo < 0 || jr.RangeHi > 1 {
			t.Errorf("job %d: range [%v, %v) invalid", id, jr.RangeLo, jr.RangeHi)
		}
		if jr.RunMS <= 0 {
			t.Errorf("job %d: run_ms = %v, want positive", id, jr.RunMS)
		}
		if jr.Workload == "" {
			t.Errorf("job %d: workload name missing", id)
		}
	}

	// GET /jobs lists every retained job (2 blockers + 8 completed).
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var all []jobResponse
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(all) != 10 {
		t.Errorf("GET /jobs returned %d jobs, want 10", len(all))
	}
}

func TestDaemonHealthAndMetrics(t *testing.T) {
	pool, err := adws.NewPool(adws.WithScheduler(adws.ADWS), adws.WithWorkers(2), adws.WithTracing(4096))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	c, err := adws.ClusterOf(adws.RouteAffinity, pool)
	if err != nil {
		t.Fatal(err)
	}
	d := newDaemon(c, true)
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	if code, _ := postJSON(t, ts.URL+"/jobs", `{"workload": "fib", "n": 20}`); code != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := pool.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" || health["workers"] != float64(2) {
		t.Errorf("healthz = %v", health)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	body := string(raw)
	for _, want := range []string{
		"adws_tasks_total", "adws_steals_total", "adws_workers 2",
		"adws_parks_total", "adws_wakes_total",
		"adws_jobs_queued 0", "adws_jobs_running 0",
		// Pool idle + -tracemetrics: the trace-derived section appears.
		"adws_trace_steal_success_rate",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestDaemonBadRequests(t *testing.T) {
	pool, err := adws.NewPool(adws.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	c, err := adws.ClusterOf(adws.RouteRoundRobin, pool)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newDaemon(c, false).handler())
	defer ts.Close()

	if code, _ := postJSON(t, ts.URL+"/jobs", `{"workload": "no-such"}`); code != http.StatusBadRequest {
		t.Errorf("unknown workload: status %d, want 400", code)
	}
	if code, _ := postJSON(t, ts.URL+"/jobs", `{not json`); code != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d, want 400", code)
	}
	if code, _ := postJSON(t, ts.URL+"/jobs", `{"workload": "fib", "n": 99}`); code != http.StatusBadRequest {
		t.Errorf("oversized fib: status %d, want 400", code)
	}
	resp, err := http.Get(ts.URL + "/jobs/999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /jobs/999: status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/jobs/zzz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET /jobs/zzz: status %d, want 400", resp.StatusCode)
	}
}

func postJSON(t *testing.T, url, body string) (int, jobResponse) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr jobResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, jr
}

// TestDaemonMetricsScrapeUnderLoad pins the tentpole scrape contract:
// /metrics renders format-valid Prometheus text exposition (validated by
// the strict internal parser, not substring checks) while jobs are
// queued and running, with the latency histogram families present; and
// after a drain the job histograms account for every completed job.
func TestDaemonMetricsScrapeUnderLoad(t *testing.T) {
	pool, err := adws.NewPool(
		adws.WithScheduler(adws.ADWS),
		adws.WithWorkers(4),
		adws.WithAdmission(2, 32),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	c, err := adws.ClusterOf(adws.RouteRoundRobin, pool)
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

	scrape := func() []metrics.Family {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		fams, err := metrics.ParseText(string(raw))
		if err != nil {
			t.Fatalf("scrape is not valid exposition: %v\n%s", err, raw)
		}
		return fams
	}

	// Two blockers pin both running slots; the fib jobs queue behind them,
	// so scrapes below observe queued AND running jobs.
	const blockers, fibs = 2, 6
	for i := 0; i < blockers; i++ {
		if code, _ := postJSON(t, ts.URL+"/jobs", `{"workload": "block"}`); code != http.StatusAccepted {
			t.Fatalf("POST blocker: status %d", code)
		}
	}
	for i := 0; i < fibs; i++ {
		if code, _ := postJSON(t, ts.URL+"/jobs", `{"workload": "fib", "n": 22}`); code != http.StatusAccepted {
			t.Fatalf("POST fib: status %d", code)
		}
	}

	// Concurrent scrapes under load: every one must parse strictly and
	// carry the histogram families.
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				fams := scrape()
				byName := make(map[string]metrics.Family, len(fams))
				for _, f := range fams {
					byName[f.Name] = f
				}
				for want, typ := range map[string]string{
					"adws_job_queue_wait_seconds": "histogram",
					"adws_job_service_seconds":    "histogram",
					"adws_job_e2e_seconds":        "histogram",
					"adws_park_seconds":           "histogram",
					"adws_steal_attempt_seconds":  "histogram",
					"adws_wake_to_run_seconds":    "histogram",
					"adws_tasks_total":            "counter",
				} {
					if f, ok := byName[want]; !ok {
						t.Errorf("scrape missing family %s", want)
					} else if f.Type != typ {
						t.Errorf("family %s has type %s, want %s", want, f.Type, typ)
					}
				}
			}
		}()
	}
	wg.Wait()

	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := pool.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	// Drained: the e2e histogram accounts for every job, and the legacy
	// gauges read zero.
	fams := scrape()
	count := func(family string) float64 {
		t.Helper()
		for _, f := range fams {
			if f.Name != family {
				continue
			}
			for _, s := range f.Samples {
				if s.Name == family+"_count" {
					return s.Value
				}
			}
		}
		t.Fatalf("no %s_count sample", family)
		return 0
	}
	if got := count("adws_job_e2e_seconds"); got != blockers+fibs {
		t.Errorf("e2e count = %g, want %d", got, blockers+fibs)
	}
	if got := count("adws_job_service_seconds"); got != blockers+fibs {
		t.Errorf("service count = %g, want %d", got, blockers+fibs)
	}
	for _, f := range fams {
		if f.Name == "adws_jobs_running" || f.Name == "adws_jobs_queued" {
			if v, ok := f.Sample(); !ok || v != 0 {
				t.Errorf("drained daemon: %s = %g, want 0", f.Name, v)
			}
		}
	}
}

// TestDaemonMultiPoolRouting drives a 2-pool affinity daemon: repeated
// keys stay on their warm pool (visible in each job's pool/verdict
// fields), /pools exposes the per-pool routing ledger, jobs are
// addressable across pools by cluster id, and /metrics grows the
// cluster families plus per-pool scrapes via ?pool=i.
func TestDaemonMultiPoolRouting(t *testing.T) {
	c, err := adws.NewCluster([]int{2, 2}, adws.RouteAffinity,
		adws.WithScheduler(adws.ADWS), adws.WithAdmission(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	d := newDaemon(c, false)
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	// 3 keys x 3 rounds, sequentially: round one is cold, later rounds
	// must come back warm on the same pool.
	poolOf := make(map[string]int)
	var ids []int64
	for round := 0; round < 3; round++ {
		for _, key := range []string{"ka", "kb", "kc"} {
			code, jr := postJSON(t, ts.URL+"/jobs",
				fmt.Sprintf(`{"workload": "fib", "n": 18, "key": %q}`, key))
			if code != http.StatusAccepted {
				t.Fatalf("POST key %s: status %d", key, code)
			}
			if round == 0 {
				if jr.Verdict != "cold" {
					t.Errorf("round 0 key %s: verdict %q, want cold", key, jr.Verdict)
				}
				poolOf[key] = jr.Pool
			} else {
				if jr.Verdict != "warm" || jr.Pool != poolOf[key] {
					t.Errorf("round %d key %s: pool %d verdict %q, want warm on pool %d",
						round, key, jr.Pool, jr.Verdict, poolOf[key])
				}
			}
			ids = append(ids, jr.ID)
			waitDaemonJob(t, ts.URL, jr.ID)
		}
	}

	// Cluster ids resolve regardless of which pool ran the job.
	for _, id := range ids {
		resp, err := http.Get(fmt.Sprintf("%s/jobs/%d", ts.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		var jr jobResponse
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if jr.State != "done" || jr.Key != "" && jr.Workload == "" {
			t.Errorf("job %d: %+v", id, jr)
		}
	}

	// /pools: policy + per-pool ledger; warm/cold totals match the stream.
	resp, err := http.Get(ts.URL + "/pools")
	if err != nil {
		t.Fatal(err)
	}
	var pl struct {
		Policy string         `json:"policy"`
		Pools  []poolResponse `json:"pools"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if pl.Policy != adws.RouteAffinity || len(pl.Pools) != 2 {
		t.Fatalf("/pools = policy %q, %d pools", pl.Policy, len(pl.Pools))
	}
	var jobs, warm, cold int64
	for i, p := range pl.Pools {
		if p.Pool != i || p.Workers != 2 {
			t.Errorf("pool %d entry = %+v", i, p)
		}
		jobs += p.Routing.Jobs
		warm += p.Routing.Warm
		cold += p.Routing.Cold
		if p.Admission.Submitted != p.Routing.Jobs {
			t.Errorf("pool %d: admission submitted %d != routed %d",
				i, p.Admission.Submitted, p.Routing.Jobs)
		}
	}
	if jobs != 9 || warm != 6 || cold != 3 {
		t.Errorf("routing totals jobs/warm/cold = %d/%d/%d, want 9/6/3", jobs, warm, cold)
	}

	// Multi-pool /metrics: cluster families only; ?pool=i adds that
	// pool's registry; out-of-range pool is a 400.
	body := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(body, "adws_cluster_routed_total") || strings.Contains(body, "adws_tasks_total") {
		t.Errorf("multi-pool /metrics wrong families:\n%s", body)
	}
	if _, err := metrics.ParseText(body); err != nil {
		t.Errorf("cluster scrape is not valid exposition: %v", err)
	}
	body = getBody(t, ts.URL+"/metrics?pool=1")
	poolFams, err := metrics.ParseText(body)
	if err != nil {
		t.Fatalf("/metrics?pool=1 is not valid exposition: %v", err)
	}
	poolFam := make(map[string]metrics.Family, len(poolFams))
	for _, f := range poolFams {
		poolFam[f.Name] = f
	}
	if f, ok := poolFam["adws_tasks_total"]; !ok || f.Type != "counter" {
		t.Errorf("/metrics?pool=1: no adws_tasks_total counter family")
	}
	if v, ok := poolFam["adws_workers"].Sample(); !ok || v != 2 {
		t.Errorf("/metrics?pool=1: adws_workers = %g (present %v), want 2", v, ok)
	}
	resp, err = http.Get(ts.URL + "/metrics?pool=7")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/metrics?pool=7: status %d, want 400", resp.StatusCode)
	}

	// /healthz reports the cluster shape.
	var health map[string]any
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["pools"] != float64(2) || health["workers"] != float64(4) || health["policy"] != adws.RouteAffinity {
		t.Errorf("healthz = %v", health)
	}
}

// waitDaemonJob polls GET /jobs/{id} until the job is terminal.
func waitDaemonJob(t *testing.T, base string, id int64) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(fmt.Sprintf("%s/jobs/%d", base, id))
		if err != nil {
			t.Fatal(err)
		}
		var jr jobResponse
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch jr.State {
		case "done":
			return
		case "failed", "canceled":
			t.Fatalf("job %d: state %q error %q", id, jr.State, jr.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %d did not finish", id)
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestDaemonSLOAdmission drives the SLO admission surface over HTTP: a
// pool started with the slo policy and a tight per-tenant rate limit
// must echo the normalized class and tenant on POST /jobs, reject
// unknown classes with 400, rate-limit a tenant's second burst-exceeding
// submission with 429 while leaving other tenants unaffected, and expose
// the per-class breakdown on /pools and the policy on /healthz.
func TestDaemonSLOAdmission(t *testing.T) {
	pool, err := adws.NewPool(
		adws.WithWorkers(2),
		adws.WithAdmissionPolicy(adws.AdmitSLO),
		adws.WithTenantRateLimit(0.001, 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	c, err := adws.ClusterOf(adws.RouteRoundRobin, pool)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newDaemon(c, false).handler())
	defer ts.Close()

	code, jr := postJSON(t, ts.URL+"/jobs", `{"workload": "fib", "n": 20, "class": "interactive", "tenant": "a"}`)
	if code != http.StatusAccepted {
		t.Fatalf("interactive submit: status %d, want 202", code)
	}
	if jr.Class != adws.ClassInteractive || jr.Tenant != "a" {
		t.Fatalf("response class=%q tenant=%q, want interactive/a", jr.Class, jr.Tenant)
	}
	// Empty class normalizes to the pool's default.
	code, jr = postJSON(t, ts.URL+"/jobs", `{"workload": "fib", "n": 20, "tenant": "b"}`)
	if code != http.StatusAccepted {
		t.Fatalf("default-class submit: status %d, want 202", code)
	}
	if jr.Class != adws.ClassStandard {
		t.Fatalf("default class = %q, want %q", jr.Class, adws.ClassStandard)
	}
	if code, _ := postJSON(t, ts.URL+"/jobs", `{"workload": "fib", "n": 20, "class": "no-such"}`); code != http.StatusBadRequest {
		t.Errorf("unknown class: status %d, want 400", code)
	}
	// Tenant "a" spent its single burst token; tenant "c" still has one.
	if code, _ = postJSON(t, ts.URL+"/jobs", `{"workload": "fib", "n": 20, "tenant": "a"}`); code != http.StatusTooManyRequests {
		t.Errorf("rate-limited tenant: status %d, want 429", code)
	}
	if code, _ = postJSON(t, ts.URL+"/jobs", `{"workload": "fib", "n": 20, "class": "batch", "tenant": "c"}`); code != http.StatusAccepted {
		t.Errorf("fresh tenant: status %d, want 202", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	var health map[string]any
	if err := json.Unmarshal([]byte(getBody(t, ts.URL+"/healthz")), &health); err != nil {
		t.Fatal(err)
	}
	if health["admission"] != adws.AdmitSLO {
		t.Errorf("healthz admission = %v, want %q", health["admission"], adws.AdmitSLO)
	}

	var poolsResp struct {
		Pools []poolResponse `json:"pools"`
	}
	if err := json.Unmarshal([]byte(getBody(t, ts.URL+"/pools")), &poolsResp); err != nil {
		t.Fatal(err)
	}
	if len(poolsResp.Pools) != 1 {
		t.Fatalf("pools = %d, want 1", len(poolsResp.Pools))
	}
	p := poolsResp.Pools[0]
	if got := p.Classes[adws.ClassInteractive].Submitted; got != 1 {
		t.Errorf("interactive submitted = %d, want 1", got)
	}
	if got := p.Classes[adws.ClassStandard].Submitted; got != 1 {
		t.Errorf("standard submitted = %d, want 1", got)
	}
	if got := p.Classes[adws.ClassBatch].Submitted; got != 1 {
		t.Errorf("batch submitted = %d, want 1", got)
	}
	if got := p.Classes[adws.ClassStandard].Rejected; got != 1 {
		t.Errorf("standard rejected = %d, want 1 (rate-limited tenant a)", got)
	}
	if len(p.QueuedByClass) != 3 {
		t.Errorf("queued_by_class has %d classes, want 3", len(p.QueuedByClass))
	}
	if got := p.Routing.Classes[adws.ClassInteractive]; got != 1 {
		t.Errorf("routing ledger interactive = %d, want 1", got)
	}
}
