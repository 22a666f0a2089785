package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/parlab/adws"
	"github.com/parlab/adws/internal/kernels"
	"github.com/parlab/adws/internal/sched"
	"github.com/parlab/adws/internal/workload"
)

// jobRec is one job of a serving workload: what is submitted, and the
// stamps the harness takes around and inside it. Stamps are nanoseconds
// since the run's epoch; zero means "not reached".
type jobRec struct {
	body func(*adws.Ctx) error
	hint adws.JobHint
	key  string
	due  int64  // open loop only: when the schedule says to send it
	seed uint64 // open loop only: what an interactive job's body was generated from

	t0, t1   int64 // Submit called, Submit returned
	tb0, tb1 int64 // body started, body ended (traced runs only)
	tdone    int64 // Done observed by the waiting goroutine
	queued   int64 // Job.Stats().Queued (traced runs only)
	service  int64 // Job.Stats().Run (traced runs only)
	outcome  outcome
}

type outcome uint8

const (
	pending outcome = iota
	good            // finished, self-check passed
	shed            // deliberately refused by admission (ErrOverloaded / rate limit)
	expired         // deadline passed while queued; never ran
	failed          // anything else: body error, wrong result, lost job
)

// stamped wraps a body so that it records when it started and ended.
func (j *jobRec) stamped(epoch time.Time) func(*adws.Ctx) error {
	return func(c *adws.Ctx) error {
		j.tb0 = int64(time.Since(epoch))
		err := j.body(c)
		j.tb1 = int64(time.Since(epoch))
		return err
	}
}

// emit logs the job's spans: the critical path from its start (due time in
// an open loop, Submit call in a closed one) to Done being observed.
func (j *jobRec) emit(l *spanLog, op int64) {
	start := j.t0
	if j.due != 0 {
		start = j.due
	}
	root := l.add(span{Name: "job", Op: op, Parent: -1, Start: start, End: j.tdone})
	if j.due != 0 {
		l.add(span{Name: "gen_late", Op: op, Parent: root, Start: j.due, End: j.t0})
	}
	// The body can start before Submit returns: only the part of the call
	// that precedes the body is on the job's critical path.
	callEnd := min(j.t1, j.tb0)
	l.add(span{Name: "submit_call", Op: op, Parent: root, Start: j.t0, End: callEnd,
		Counts: map[string]int64{"full_call_ns": j.t1 - j.t0}})
	if j.tb0 > callEnd {
		dw := l.add(span{Name: "dispatch_wait", Op: op, Parent: root, Start: callEnd, End: j.tb0})
		// Job.Stats().Queued is measured from inside Submit; what is left of
		// it after the call returned was spent in the admission queue, the
		// rest of the wait is the runtime claiming the root.
		adm := min(max(j.queued-(callEnd-j.t0), 0), j.tb0-callEnd)
		l.add(span{Name: "admission_wait", Op: op, Parent: dw, Start: callEnd, End: callEnd + adm})
		l.add(span{Name: "claim_wait", Op: op, Parent: dw, Start: callEnd + adm, End: j.tb0})
	}
	l.add(span{Name: "body", Op: op, Parent: root, Start: j.tb0, End: j.tb1})
	l.add(span{Name: "notify", Op: op, Parent: root, Start: j.tb1, End: j.tdone})
}

// ---------------------------------------------------------------- closed

// closedBench is the serve_closed workload: wn clients, each Submit ->
// Wait -> next, tiny jobs, one pool, FIFO admission. No queue ever forms.
type closedBench struct {
	cfg   config
	pools map[string]*adws.Pool // "adws", "ws"
	jobs  []jobRec              // one block, refilled (untimed) before every use
	next  uint64                // seed of the next job generated
}

func fibJob(seed uint64) (jobRec, error) {
	j, err := workload.NewJob("fib", 20, seed)
	if err != nil {
		return jobRec{}, err
	}
	return jobRec{body: j.Body, hint: j.Hint()}, nil
}

// refill replaces the block with fresh jobs: a workload.Job body is good
// for one run.
func (b *closedBench) refill() error {
	for i := range b.jobs {
		j, err := fibJob(b.next)
		if err != nil {
			return err
		}
		b.jobs[i] = j
		b.next++
	}
	return nil
}

// newClosed starts the two pools and runs one untimed block on each.
func newClosed(cfg config) (*closedBench, error) {
	b := &closedBench{cfg: cfg, pools: map[string]*adws.Pool{}, next: cfg.seed,
		jobs: make([]jobRec, cfg.size.closedBlockJobs)}
	for _, policy := range []string{"adws", "ws"} {
		p, err := newPool(cfg, policy, cfg.wn)
		if err != nil {
			b.close()
			return nil, fmt.Errorf("serve_closed: %s pool: %w", policy, err)
		}
		b.pools[policy] = p
		if err := b.refill(); err != nil {
			b.close()
			return nil, err
		}
		b.runBlock(p, false, time.Now())
	}
	return b, nil
}

func (b *closedBench) close() {
	for _, p := range b.pools {
		p.Close()
	}
}

// runBlock drives one block through the pool with wn closed-loop clients
// and returns its wall time.
func (b *closedBench) runBlock(p *adws.Pool, traced bool, epoch time.Time) time.Duration {
	jobs := b.jobs
	ctx := context.Background()
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < b.cfg.wn; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(jobs); i += b.cfg.wn {
				j := &jobs[i]
				body := j.body
				if traced {
					body = j.stamped(epoch)
				}
				j.t0 = int64(time.Since(epoch))
				job, err := p.Submit(ctx, body, j.hint)
				j.t1 = int64(time.Since(epoch))
				if err != nil {
					j.outcome = failed
					continue
				}
				err = job.Wait(ctx)
				j.tdone = int64(time.Since(epoch))
				j.outcome = good
				if err != nil {
					j.outcome = failed
				}
				if traced {
					st := job.Stats()
					j.queued, j.service = int64(st.Queued), int64(st.Run)
				}
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

func (b *closedBench) run(spans *spanLog, epoch time.Time) result {
	res := newResult()
	wall := map[string][]float64{}
	var blockP50 []float64             // ADWS blocks: median latency
	blockCPU := map[string][]float64{} // CPU ns per job
	var lat, call, dispatch, queue, service, notify []float64
	for blk := 0; blk < b.cfg.size.closedBlocks; blk++ {
		order := []string{"adws", "ws"}
		if blk%2 == 1 {
			order = []string{"ws", "adws"}
		}
		for _, policy := range order {
			if err := b.refill(); err != nil {
				res.fail(len(b.jobs), "serve_closed: %v", err)
				continue
			}
			cpu0 := cpuTime()
			d := b.runBlock(b.pools[policy], spans != nil, epoch)
			cpu := cpuTime() - cpu0
			wall[policy] = append(wall[policy], float64(d))
			first := len(lat)
			for i := range b.jobs {
				j := &b.jobs[i]
				res.attempted++
				if j.outcome != good {
					res.fail(1, "serve_closed %s: job ended %v", policy, j.outcome)
					continue
				}
				if policy != "adws" {
					continue
				}
				lat = append(lat, float64(j.tdone-j.t0))
				if spans != nil {
					j.emit(spans, int64(len(lat)))
					call = append(call, float64(j.t1-j.t0))
					dispatch = append(dispatch, float64(max(j.tb0-j.t1, 0)))
					queue = append(queue, float64(j.queued))
					service = append(service, float64(j.service))
					notify = append(notify, float64(j.tdone-j.tb1))
				}
			}
			blockCPU[policy] = append(blockCPU[policy], float64(cpu)/float64(len(b.jobs)))
			if policy == "adws" && len(lat) > first {
				blockP50 = append(blockP50, median(lat[first:]))
			}
		}
	}
	res.e2e["ops_per_s"] = float64(len(b.jobs)) / (undisturbed(wall["adws"]) / 1e9)
	res.e2e["op_p50_us"] = undisturbed(blockP50) / 1e3
	res.e2e["adws_ws_ratio"] = median(pairRatios(wall["adws"], wall["ws"]))
	res.e2e["adws_ws_cpu_ratio"] = median(pairRatios(blockCPU["adws"], blockCPU["ws"]))
	res.e2e["cpu_us_per_op"] = undisturbed(blockCPU["adws"]) / 1e3

	sort.Float64s(lat)
	res.layer["server.jobs_per_s"] = float64(len(b.jobs)) / (median(wall["adws"]) / 1e9)
	res.layer["server.e2e_p50_us"] = quantile(lat, 0.5) / 1e3
	res.layer["server.e2e_p99_us"] = tail(lat, 99) / 1e3
	if spans != nil {
		for name, v := range map[string][]float64{"submit_call": call, "dispatch_wait": dispatch, "queue_wait": queue} {
			sort.Float64s(v)
			res.layer["server."+name+"_us_p50"] = quantile(v, 0.5) / 1e3
			res.layer["server."+name+"_us_p99"] = tail(v, 99) / 1e3
		}
		res.layer["server.service_us_p50"] = median(service) / 1e3
		res.layer["server.notify_us_p50"] = median(notify) / 1e3
	}
	return res
}

// ------------------------------------------------------------------ open

// Open-loop offered rates in jobs per second. Capacity of the 70/30
// interactive/batch mix on the 2-core sandbox was measured once with
// `go run ./bench -calibrate` (see README.md, "Calibration") and frozen as
// openCapacity; the three rates are 40 %, 70 % and 120 % of it.
// They are constants so that every run, on every commit, offers the same
// load.
const (
	openCapacity = 1250.0
	rateLo       = 0.40 * openCapacity
	rateMid      = 0.70 * openCapacity
	rateHi       = 1.20 * openCapacity

	interactiveLimit = 20 * time.Millisecond
	batchLimit       = 500 * time.Millisecond
	batchN           = 50_000
	openKeys         = 7
	openTenants      = 2
	openQueue        = 128 // admission queue depth per pool

	// A run whose generator sent more than one job in ten over 1 ms late at
	// rate_lo did not offer the scheduled load and is invalid. The p99 is
	// reported but cannot be the gate on a host whose every CPU runs a
	// worker: a generator that wakes while both are mid-task waits out a
	// scheduler slice (about 3 ms here), which is 1-2 % of the sends.
	genLateLimitUS = 1000.0
)

// openWindow is one stretch of open-loop arrivals at a fixed rate.
type openWindow struct {
	rate    float64
	cluster string // "adws" or "ws"
	jobs    []jobRec
	// Measured.
	wall, cpu                       time.Duration
	queuedMid, queuedEnd, queuedMax int
}

type openBench struct {
	cfg      config
	procs    int // GOMAXPROCS to restore
	clusters map[string]*adws.Cluster
	windows  []*openWindow
	rng      *sched.RNG // every input is drawn from this
	// noDeadline sends jobs without a queue deadline (calibration only).
	noDeadline bool
	// Batch jobs sort a copy of their key's master array in one of a few
	// preallocated work buffers; free hands out the idle ones.
	masters [][]float64
	work    []batchBuf
	free    chan int
}

type batchBuf struct {
	data []float64
	body func(*adws.Ctx)
}

// schedule generates one window's arrivals from rng: exponential gaps at
// the given rate, 70 % interactive, uniform keys and tenants.
func (b *openBench) schedule(rng *sched.RNG, rate float64, seconds float64) ([]jobRec, error) {
	var jobs []jobRec
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / rate
		if t >= seconds {
			return jobs, nil
		}
		key := rng.Intn(openKeys)
		j := jobRec{key: fmt.Sprintf("k%d", key), due: int64(t * 1e9)}
		tenant := fmt.Sprintf("t%d", rng.Intn(openTenants))
		if rng.Float64() < 0.7 {
			j.seed = rng.Next()
			f, err := fibJob(j.seed)
			if err != nil {
				return nil, err
			}
			j.body, j.hint = f.body, f.hint
			j.hint.Class = adws.ClassInteractive
		} else {
			j.body = b.batchBody(key)
			j.hint = adws.JobHint{Work: batchN * math.Log2(batchN), Class: adws.ClassBatch}
		}
		j.hint.Tenant = tenant
		jobs = append(jobs, j)
	}
}

// batchBody sorts a fresh copy of key's master array and checks the result.
func (b *openBench) batchBody(key int) func(*adws.Ctx) error {
	return func(c *adws.Ctx) error {
		i := <-b.free
		defer func() { b.free <- i }()
		w := b.work[i]
		copy(w.data, b.masters[key])
		w.body(c)
		if !sort.Float64sAreSorted(w.data) {
			return errors.New("batch quicksort: output not sorted")
		}
		return nil
	}
}

// twin returns the same arrivals with fresh bodies, to replay a window on
// the other cluster: a workload.Job body is good for one run.
func twin(jobs []jobRec) ([]jobRec, error) {
	out := make([]jobRec, len(jobs))
	for i, j := range jobs {
		out[i] = jobRec{body: j.body, hint: j.hint, key: j.key, due: j.due, seed: j.seed}
		if j.hint.Class == adws.ClassInteractive {
			f, err := fibJob(j.seed)
			if err != nil {
				return nil, err
			}
			out[i].body = f.body
		}
	}
	return out, nil
}

func limitOf(class string) time.Duration {
	if class == adws.ClassInteractive {
		return interactiveLimit
	}
	return batchLimit
}

// newOpenClusters starts the two clusters (admission queue depth `queue`
// per pool) and builds the batch inputs; newOpen adds the schedule.
func newOpenClusters(cfg config, queue int) (*openBench, error) {
	b := &openBench{cfg: cfg, clusters: map[string]*adws.Cluster{}}
	// The generator is a thread of its own beside the nproc workers. With
	// GOMAXPROCS = nproc it would wait for a worker to park before it could
	// send (workers do not yield between tasks), and run a whole batch job
	// late; with one more P the kernel time-slices it in, as it would a
	// client process on the same host.
	b.procs = runtime.GOMAXPROCS(runtime.GOMAXPROCS(0) + 1)
	per := max(cfg.wn/2, 1)
	for _, policy := range []string{"adws", "ws"} {
		cl, err := adws.NewCluster([]int{per, per}, adws.RouteAffinity,
			adws.WithScheduler(schedulerOf(policy)), adws.WithSeed(cfg.seed),
			adws.WithAdmissionPolicy(adws.AdmitSLO), adws.WithAdmission(per, queue))
		if err != nil {
			b.close()
			return nil, fmt.Errorf("serve_open: %s cluster: %w", policy, err)
		}
		b.clusters[policy] = cl
	}
	b.rng = sched.NewRNG(cfg.seed^0x09E4, 0)
	b.masters = make([][]float64, openKeys)
	for k := range b.masters {
		b.masters[k] = make([]float64, batchN)
		for i := range b.masters[k] {
			b.masters[k][i] = b.rng.Float64()
		}
	}
	// At most `per` jobs run per pool, on two clusters never at once.
	b.free = make(chan int, 2*per)
	for i := 0; i < 2*per; i++ {
		data := make([]float64, batchN)
		b.work = append(b.work, batchBuf{data: data, body: kernels.QuicksortBody(data)})
		b.free <- i
	}
	return b, nil
}

// window schedules `seconds` of arrivals at `rate` for the named cluster.
func (b *openBench) window(cluster string, rate, seconds float64) (*openWindow, error) {
	jobs, err := b.schedule(b.rng, rate, seconds)
	return &openWindow{rate: rate, cluster: cluster, jobs: jobs}, err
}

// newOpen builds the schedule and runs one short untimed window.
func newOpen(cfg config) (*openBench, error) {
	b, err := newOpenClusters(cfg, openQueue)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*openBench, error) {
		b.close()
		return nil, err
	}
	sz := cfg.size
	warm, err := b.window("adws", rateLo, sz.openWarmS)
	if err != nil {
		return fail(err)
	}
	b.runWindow(warm, false, time.Now())
	// rate_lo is cut into slices, each replayed on the WS cluster with the
	// same arrivals, alternating which cluster goes first: the two policies'
	// latencies are paired job by job. Mid and hi run on ADWS only.
	for s := 0; s < sz.openLoSlices; s++ {
		a, err := b.window("adws", rateLo, sz.openLoS/float64(sz.openLoSlices))
		if err != nil {
			return fail(err)
		}
		w := &openWindow{rate: rateLo, cluster: "ws"}
		if w.jobs, err = twin(a.jobs); err != nil {
			return fail(err)
		}
		if s%2 == 1 {
			a, w = w, a
		}
		b.windows = append(b.windows, a, w)
	}
	for _, rate := range []float64{rateMid, rateHi} {
		w, err := b.window("adws", rate, sz.openWindowS)
		if err != nil {
			return fail(err)
		}
		b.windows = append(b.windows, w)
	}
	return b, nil
}

func (b *openBench) close() {
	for _, c := range b.clusters {
		c.Close()
	}
	runtime.GOMAXPROCS(b.procs)
}

// runWindow sends the window's jobs at their due times from this one
// goroutine and waits until every one of them has ended.
func (b *openBench) runWindow(w *openWindow, traced bool, epoch time.Time) {
	cl := b.clusters[w.cluster]
	ctx := context.Background()
	base := int64(time.Since(epoch)) // the window's own time zero
	var wg sync.WaitGroup
	midAt := len(w.jobs) / 2
	for i := range w.jobs {
		j := &w.jobs[i]
		j.due += base
		if wait := j.due - int64(time.Since(epoch)); wait > 20_000 {
			sleepFor(time.Duration(wait))
		}
		body := j.body
		if traced {
			body = j.stamped(epoch)
		}
		hint := j.hint
		if !b.noDeadline {
			hint.Deadline = epoch.Add(time.Duration(j.due) + limitOf(hint.Class))
		}
		j.t0 = int64(time.Since(epoch))
		job, err := cl.Submit(ctx, j.key, body, hint)
		j.t1 = int64(time.Since(epoch))
		switch {
		case err == nil:
			wg.Add(1)
			go func() { // observes Done; submits nothing
				defer wg.Done()
				err := job.Wait(ctx)
				j.tdone = int64(time.Since(epoch))
				switch {
				case err == nil:
					j.outcome = good
				case job.State() == adws.JobCanceled:
					j.outcome = expired
				default:
					j.outcome = failed
				}
				if traced {
					st := job.Stats()
					j.queued, j.service = int64(st.Queued), int64(st.Run)
				}
			}()
		case errors.Is(err, adws.ErrOverloaded), errors.Is(err, adws.ErrRateLimited):
			j.outcome = shed
		case errors.Is(err, context.DeadlineExceeded):
			j.outcome = expired // the generator ran later than the job's limit
		default:
			j.outcome = failed
		}
		if i%8 == 0 || i == midAt || i == len(w.jobs)-1 {
			q, _ := cl.InFlight()
			w.queuedMax = max(w.queuedMax, q)
			if i == midAt {
				w.queuedMid = q
			}
			w.queuedEnd = q
		}
	}
	w.wall = time.Duration(int64(time.Since(epoch)) - base)
	wg.Wait()
}

// windowStats is what one window, or several merged ones, showed.
type windowStats struct {
	sent, goodInLimit, shed, expired int
	latency                          map[string][]float64 // class -> ns from due time, completed jobs
	late                             []float64            // generator lateness, ns
}

// stats tallies the windows' jobs; operations that failed are charged to res.
func (b *openBench) stats(res *result, ws ...*openWindow) windowStats {
	st := windowStats{latency: map[string][]float64{}}
	for _, w := range ws {
		for i := range w.jobs {
			j := &w.jobs[i]
			st.sent++
			st.late = append(st.late, float64(j.t0-j.due))
			switch j.outcome {
			case good:
				d := j.tdone - j.due
				st.latency[j.hint.Class] = append(st.latency[j.hint.Class], float64(d))
				if time.Duration(d) <= limitOf(j.hint.Class) {
					st.goodInLimit++
				}
			case shed:
				st.shed++
			case expired:
				st.expired++
			default:
				res.fail(1, "serve_open: job at %.0f/s ended %v", w.rate, j.outcome)
			}
		}
	}
	res.attempted += st.sent
	for _, v := range st.latency {
		sort.Float64s(v)
	}
	sort.Float64s(st.late)
	return st
}

func (st windowStats) p(class string, p float64) float64 { return tail(st.latency[class], p) }

// meetsLimits reports whether both classes met their limit at p99, no more
// than 1 % of the jobs were refused or expired, and the backlog was not
// growing: no deeper at the end of the window than at its midpoint, beyond
// jitter.
func (st windowStats) meetsLimits(w *openWindow) bool {
	for class := range st.latency {
		if time.Duration(st.p(class, 99)) > limitOf(class) {
			return false
		}
	}
	return st.shed+st.expired <= st.sent/100 && w.queuedEnd <= 2*w.queuedMid+8
}

func (b *openBench) run(spans *spanLog, epoch time.Time) result {
	res := newResult()
	var cpu time.Duration
	var loA, loW, rest []*openWindow // rate_lo slices per cluster; then mid, hi
	before := b.clusters["adws"].Totals()
	for _, w := range b.windows {
		cpu0 := cpuTime()
		b.runWindow(w, spans != nil, epoch)
		w.cpu = cpuTime() - cpu0
		switch {
		case w.cluster == "ws":
			loW = append(loW, w)
			continue
		case w.rate == rateLo:
			loA = append(loA, w)
		default:
			rest = append(rest, w)
		}
		cpu += w.cpu
	}
	after := b.clusters["adws"].Totals()
	mid, hi := rest[0], rest[1]
	measured := append(append([]*openWindow{}, loA...), rest...) // ADWS windows

	// Paired slices: each ADWS slice against the WS replay of its arrivals.
	var ratios, cpuRatios []float64
	var scratch result // the merged statistics below count these jobs
	for i, w := range loW {
		a, ws := b.stats(&scratch, loA[i]), b.stats(&res, w)
		ratios = append(ratios, a.p(adws.ClassInteractive, 50)/ws.p(adws.ClassInteractive, 50))
		cpuRatios = append(cpuRatios, float64(loA[i].cpu)/float64(w.cpu))
	}
	stLo, stMid, stHi := b.stats(&res, loA...), b.stats(&res, mid), b.stats(&res, hi)

	res.e2e["ops_per_s"] = float64(stHi.goodInLimit) / hi.wall.Seconds()
	res.e2e["op_p50_us"] = stLo.p(adws.ClassInteractive, 50) / 1e3
	res.e2e["adws_ws_ratio"] = median(ratios)
	res.e2e["adws_ws_cpu_ratio"] = median(cpuRatios)
	res.e2e["cpu_us_per_op"] = float64(cpu.Microseconds()) / float64(stLo.sent+stMid.sent+stHi.sent)

	res.layer["server.interactive_p50_us"] = res.e2e["op_p50_us"]

	// About 1400 interactive and 600 batch jobs arrive at rate_lo: enough
	// for a p99 of the first and a p95 of the second.
	res.layer["server.interactive_p99_ms"] = stLo.p(adws.ClassInteractive, 99) / 1e6
	res.layer["server.batch_p95_ms"] = stLo.p(adws.ClassBatch, 95) / 1e6
	res.layer["server.slo_goodput_ratio"] = float64(stHi.goodInLimit) / float64(stHi.sent)
	res.layer["server.shed_ratio"] = float64(stHi.shed) / float64(stHi.sent)
	res.layer["server.expired"] = float64(stHi.expired)
	res.layer["server.queue_depth_max"] = float64(hi.queuedMax)
	res.layer["server.max_rate_ok"] = 0
	for _, c := range []struct {
		st windowStats
		w  *openWindow
	}{{stLo, loA[len(loA)-1]}, {stMid, mid}, {stHi, hi}} {
		if !c.st.meetsLimits(c.w) {
			break
		}
		res.layer["server.max_rate_ok"] = c.w.rate
	}
	// Fairness between tenants: Jain index of their mean interactive
	// latency under overload.
	sum, n := map[string]float64{}, map[string]float64{}
	for i := range hi.jobs {
		if j := &hi.jobs[i]; j.outcome == good && j.hint.Class == adws.ClassInteractive {
			sum[j.hint.Tenant] += float64(j.tdone - j.due)
			n[j.hint.Tenant]++
		}
	}
	var means []float64
	for t := range sum {
		means = append(means, sum[t]/n[t])
	}
	res.layer["server.jain"] = jain(means)

	var call []float64
	op := int64(0)
	for _, w := range measured {
		for i := range w.jobs {
			j := &w.jobs[i]
			call = append(call, float64(j.t1-j.t0))
			if spans != nil && j.outcome == good {
				op++
				j.emit(spans, op)
			}
		}
	}
	routed := float64(max(after.Jobs-before.Jobs, 1))
	res.layer["cluster.submit_call_us_p50"] = median(call) / 1e3
	res.layer["cluster.warm_ratio"] = float64(after.Warm-before.Warm) / routed
	res.layer["cluster.spill"] = float64(after.Spill - before.Spill)
	res.layer["cluster.moved"] = float64(after.Moved - before.Moved)
	res.layer["bench.gen_late_us_p99"] = tail(stLo.late, 99) / 1e3
	if late := quantile(stLo.late, 0.9) / 1e3; late > genLateLimitUS {
		res.invalid = fmt.Sprintf("generator ran %.0f us late at p90 at rate_lo (limit %.0f us): the offered load was not the scheduled one", late, genLateLimitUS)
	}
	return res
}

// calibrate measures what the open-loop rates are fractions of: the rate
// at which the ADWS cluster completes the 70/30 mix when it is never idle.
// Each round floods it with about 4000 jobs (deep queue, no deadlines, so
// nothing is shed) and divides by the time to the last completion.
func calibrate(cfg config, stdout io.Writer) error {
	b, err := newOpenClusters(cfg, 1<<16)
	if err != nil {
		return err
	}
	defer b.close()
	b.noDeadline = true
	var caps []float64
	for r := 0; r < 7; r++ {
		w, err := b.window("adws", 1e5, 0.04)
		if err != nil {
			return err
		}
		b.runWindow(w, false, time.Now())
		var last int64
		for i := range w.jobs {
			if w.jobs[i].outcome != good {
				return fmt.Errorf("calibrate: job ended %v", w.jobs[i].outcome)
			}
			last = max(last, w.jobs[i].tdone)
		}
		c := float64(len(w.jobs)) / (float64(last-w.jobs[0].t0) / 1e9)
		fmt.Fprintf(stdout, "round %d: %d jobs, %.0f jobs/s\n", r, len(w.jobs), c)
		caps = append(caps, c)
	}
	fmt.Fprintf(stdout, "capacity (median): %.0f jobs/s; frozen openCapacity = %.0f\n", median(caps), openCapacity)
	return nil
}

func (o outcome) String() string {
	return [...]string{"pending", "good", "shed", "expired", "failed"}[o]
}
