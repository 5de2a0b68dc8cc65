package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"yardstick/internal/core"
	"yardstick/internal/jobs"
	"yardstick/internal/netmodel"
	"yardstick/internal/sharded"
	"yardstick/internal/testkit"
)

// env is what every workload needs from the invocation.
type env struct {
	benchDir string // this package's directory
	runDir   string // scratch for generated inputs, removed at exit
	bins     binaries
	buildS   float64
	golden   bool // rewrite the pinned digests instead of checking them
}

// pollEvery is how often a client polls GET /jobs/{id}.
const pollEvery = 10 * time.Millisecond

// coordRounds repeats the coordinator's shard list: round 1 loads the
// network and fills the workers' caches, the rest is dispatch and wire.
const coordRounds = 2

// measured is what one timed loop observed.
type measured struct {
	lat       []float64 // ms per timed op
	wall      time.Duration
	attempted int
	failed    int
	failures  []string // first few reasons
	wireBytes int64
	cpu       float64 // CPU seconds of the programs under test
	rssMB     float64
	// profiled holds the latencies of the ops run with -profile (batch
	// workloads in the traced invocation only).
	profiled []float64
}

func (m *measured) fail(format string, args ...any) {
	m.failed++
	if len(m.failures) < 5 {
		m.failures = append(m.failures, fmt.Sprintf(format, args...))
	}
}

// workload is one of the five load shapes. Set-up is prepare + launch;
// the driver times both, may repeat them, and calls shutdown in
// between. oracle runs once, untimed, after the last launch.
type workload interface {
	prepare() error // generate inputs from the seed and write them
	launch() error  // start the programs, load, warm up
	shutdown()      // stop whatever launch started
	oracle() error  // compute the reference outputs
	// loop runs ops closed-loop until d has elapsed. With a recorder the
	// same ops are replayed from outside with a span around every call
	// into a layer; withProfile additionally alternates -profile on the
	// batch CLI.
	loop(d time.Duration, rec *recorder, withProfile bool) measured
	// finish runs checks that need the loop to be over.
	finish(m *measured)
	input() *inputs
	daemons() []*daemon
	// httpStats reports HTTP attempts made by the harness's clients and
	// how many of them the daemon shed.
	httpStats() (attempts, shed int64)
}

func newWorkload(e *env, name string, seed int64) (workload, error) {
	switch name {
	case wBatchFattree:
		return &batchWL{env: e, name: name, seed: seed, workers: 1}, nil
	case wBatchSharded:
		return &batchWL{env: e, name: name, seed: seed, workers: 2}, nil
	case wServiceMix:
		return &serviceWL{oneDaemon: oneDaemon{serviceBase: serviceBase{env: e, seed: seed}}}, nil
	case wChurnPatch:
		return &churnWL{oneDaemon: oneDaemon{serviceBase: serviceBase{env: e, seed: seed}}}, nil
	case wFleetCoord:
		return &fleetWL{serviceBase: serviceBase{env: e, seed: seed}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// pinOracle checks (or records) the oracle digest for the golden seed.
func pinOracle(e *env, name string, seed int64, o *oracle) error {
	if seed != goldenSeed {
		return nil
	}
	return checkGolden(e.benchDir, name, o.digest(), e.golden)
}

func writeInput(e *env, in *inputs) (string, error) {
	path := filepath.Join(e.runDir, in.family+".json")
	return path, os.WriteFile(path, in.json, 0o644)
}

// ---------------------------------------------------------------- batch

// batchWL is batch_fattree (workers 1) and batch_sharded (workers 2):
// every op is a cold CLI process.
type batchWL struct {
	*env
	name    string
	seed    int64
	workers int
	in      *inputs
	file    string
	ref     *oracle
}

func (w *batchWL) input() *inputs                    { return w.in }
func (w *batchWL) daemons() []*daemon                { return nil }
func (w *batchWL) httpStats() (attempts, shed int64) { return 0, 0 }

func (w *batchWL) prepare() (err error) {
	if w.in, err = genFatTree(); err != nil {
		return err
	}
	w.file, err = writeInput(w.env, w.in)
	return err
}

func (w *batchWL) launch() error { return nil } // timed cold: a CLI user pays start-up on every run
func (w *batchWL) shutdown()     {}

func (w *batchWL) oracle() (err error) {
	if w.ref, err = computeOracle(w.in.net, batchSuites); err != nil {
		return err
	}
	return pinOracle(w.env, w.name, w.seed, w.ref)
}

func (w *batchWL) finish(*measured) {}

func (w *batchWL) loop(d time.Duration, rec *recorder, withProfile bool) measured {
	var m measured
	order := strings.Join(batchSuites, ",")
	start := time.Now()
	var last time.Time
	for i := 0; time.Since(start) < d; i++ {
		m.attempted++
		if rec != nil {
			t0 := time.Now()
			if err := w.shadowOp(rec, i, order); err != nil {
				m.fail("traced op %d: %v", i, err)
			}
			m.lat = append(m.lat, msSince(t0))
			last = time.Now()
			continue
		}
		args := []string{"-net", w.file, "-suite", order, "-workers", strconv.Itoa(w.workers)}
		profile := withProfile && i%2 == 1
		if profile {
			args = append(args, "-profile")
		}
		res, err := runProgram(context.Background(), w.bins.cli, args...)
		last = time.Now()
		switch {
		case err != nil:
			m.fail("op %d: %v", i, err)
		case res.exitCode != 0:
			m.fail("op %d: exit %d: %s", i, res.exitCode, lastLine(res.stderr))
		case tableFrom(res.stdout) != w.ref.table:
			m.fail("op %d: coverage table differs from oracle", i)
		}
		if profile {
			m.profiled = append(m.profiled, res.wallMS)
		} else {
			m.lat = append(m.lat, res.wallMS)
		}
		m.cpu += res.cpu
		m.rssMB = max(m.rssMB, res.rssMB)
		m.wireBytes += int64(len(w.in.json) + len(res.stdout))
	}
	m.wall = last.Sub(start)
	return m
}

// shadowOp replays one CLI op in-process through the layers' public
// functions — read and decode the file, run each test, compute and
// render the table — with a span around each call.
func (w *batchWL) shadowOp(rec *recorder, i int, order string) error {
	op := rec.begin("op."+w.name, 0, i)
	defer rec.end(op)
	var n *netmodel.Network
	var err error
	rec.time("netmodel.json_decode", op, i, func() {
		var data []byte
		if data, err = os.ReadFile(w.file); err == nil {
			n, err = netmodel.DecodeJSON(bytes.NewReader(data))
		}
	})
	if err != nil {
		return err
	}
	suite, err := testkit.BuiltinSuite(order)
	if err != nil {
		return err
	}
	tr := core.NewTrace()
	if w.workers == 1 {
		for _, t := range suite {
			var r testkit.Result
			rec.time("testkit."+t.Name(), op, i, func() { r = t.Run(n, tr) })
			if !r.Pass() {
				return fmt.Errorf("%s: %s", r.Name, r.Status())
			}
		}
	} else {
		var eng *sharded.Engine
		rec.time("sharded.build_replicas", op, i, func() {
			eng, err = sharded.New(context.Background(), n, sharded.Config{Workers: w.workers})
		})
		if err != nil {
			return err
		}
		var res *sharded.Result
		rec.time("sharded.run", op, i, func() { res, err = eng.Run(context.Background(), suite) })
		if err != nil {
			return err
		}
		tr.Merge(res.Trace)
	}
	var table string
	rec.time("core.metric_table", op, i, func() { table, _, _, err = coverageRows(n, tr) })
	if err != nil {
		return err
	}
	if table != w.ref.table {
		return errors.New("coverage table differs from oracle")
	}
	return nil
}

// -------------------------------------------------------------- service

// serviceBase is what the three daemon workloads share: the regional
// input and the reference table of the full suite.
type serviceBase struct {
	*env
	seed int64
	in   *inputs
	file string
	ref  *oracle
}

func (s *serviceBase) input() *inputs { return s.in }

func (s *serviceBase) prepareRegional() (err error) {
	if s.in, err = genRegional(s.seed); err != nil {
		return err
	}
	s.file, err = writeInput(s.env, s.in)
	return err
}

func (s *serviceBase) fullOracle(name string) (err error) {
	if s.ref, err = computeOracle(s.in.net, allSuites); err != nil {
		return err
	}
	return pinOracle(s.env, name, s.seed, s.ref)
}

// runJob submits suites as one job and polls it to a terminal state,
// recording the exchanges (and, from the job's own timestamps, its
// queue wait and run) under parent.
func runJob(c *httpClient, parent, op int, suites []string) (jobs.Job, error) {
	var j jobs.Job
	ex, err := c.do("service.post_jobs", parent, op, http.MethodPost, "/jobs?suite="+strings.Join(suites, ","), nil)
	if err == nil {
		err = ex.expect(http.StatusAccepted)
	}
	if err != nil {
		return j, fmt.Errorf("POST /jobs: %w", err)
	}
	if err := json.Unmarshal(ex.body, &j); err != nil {
		return j, fmt.Errorf("POST /jobs body: %w", err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for j.State == jobs.StateQueued || j.State == jobs.StateRunning {
		if time.Now().After(deadline) {
			return j, fmt.Errorf("job %s still %s after 60s", j.ID, j.State)
		}
		wait := c.rec.begin("jobs.poll_wait", parent, op)
		time.Sleep(pollEvery)
		c.rec.end(wait)
		ex, err := c.do("service.get_job", parent, op, http.MethodGet, "/jobs/"+j.ID, nil)
		if err == nil {
			err = ex.expect(http.StatusOK)
		}
		if err != nil {
			return j, fmt.Errorf("GET /jobs/%s: %w", j.ID, err)
		}
		if err := json.Unmarshal(ex.body, &j); err != nil {
			return j, fmt.Errorf("GET /jobs/%s body: %w", j.ID, err)
		}
	}
	c.rec.add("jobs.queue_wait", parent, op, j.Submitted, j.Started)
	c.rec.add("jobs.run", parent, op, j.Started, j.Finished)
	if j.State != jobs.StateDone {
		return j, fmt.Errorf("job %s ended %s: %s", j.ID, j.State, j.Error)
	}
	return j, nil
}

// readCoverage fetches GET /coverage; the daemon's Server-Timing header
// says how much of the exchange was metric computation, recorded as a
// child span ending where the exchange ends.
func readCoverage(c *httpClient, spanName string, parent, op int) ([]byte, error) {
	ex, err := c.do(spanName, parent, op, http.MethodGet, "/coverage", nil)
	if err == nil {
		err = ex.expect(http.StatusOK)
	}
	if err != nil {
		return nil, fmt.Errorf("GET /coverage: %w", err)
	}
	if d, ok := serverCompute(ex.header); ok {
		c.rec.add("core.metric_table", ex.span, op, ex.end.Add(-d), ex.end)
	}
	return ex.body, nil
}

// warmDaemon runs every suite once and reads the table: a long-lived
// daemon's users never see a cold op cache.
func warmDaemon(url string) error {
	c := newHTTPClient(url, &httpCounts{}, nil)
	defer c.close()
	for _, s := range allSuites {
		if _, err := runJob(c, 0, 0, []string{s}); err != nil {
			return fmt.Errorf("warm-up %s: %w", s, err)
		}
	}
	_, err := readCoverage(c, "", 0, 0)
	return err
}

// usage sums CPU and takes the largest resident high-water mark over
// the daemons.
func usage(ds ...*daemon) (cpu, rssMB float64) {
	for _, d := range ds {
		c, r, err := procUsage(d.pid())
		if err != nil {
			continue // the failure surfaces as failed ops
		}
		cpu += c
		rssMB = max(rssMB, r)
	}
	return cpu, rssMB
}

func wireBytes(ds ...*daemon) (n int64) {
	for _, d := range ds {
		n += d.fwd.bytes.Load()
	}
	return n
}

// oneDaemon is what service_mix and churn_patch share on top of
// serviceBase: one warm daemon and the counts of the harness's own HTTP
// clients.
type oneDaemon struct {
	serviceBase
	d      *daemon
	counts httpCounts
}

// start launches the daemon on the generated network and warms it.
func (o *oneDaemon) start() (err error) {
	if o.d, err = startDaemon(o.bins.daemon, o.file); err != nil {
		return err
	}
	return warmDaemon(o.d.url())
}

func (o *oneDaemon) shutdown() { o.d.stop(); o.d = nil }

func (o *oneDaemon) daemons() []*daemon { return []*daemon{o.d} }

func (o *oneDaemon) httpStats() (attempts, shed int64) {
	return o.counts.attempts.Load(), o.counts.shed.Load()
}

// serviceWL is service_mix: two closed-loop clients against one warm
// daemon.
type serviceWL struct {
	oneDaemon
	mix  [2][][]string
	next [2]int
}

func (w *serviceWL) prepare() error {
	for c := range w.mix {
		w.mix[c] = suiteMix(w.seed, c, 4096)
	}
	return w.prepareRegional()
}

func (w *serviceWL) launch() error { return w.start() }

func (w *serviceWL) oracle() error { return w.fullOracle(wServiceMix) }

func (w *serviceWL) finish(*measured) {}

func (w *serviceWL) loop(d time.Duration, rec *recorder, _ bool) measured {
	var m measured
	w.next = [2]int{} // every loop replays the sequence from its start
	var mu sync.Mutex
	cpu0, _ := usage(w.d)
	wire0 := wireBytes(w.d)
	start := time.Now()
	var last time.Time
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := newHTTPClient(w.d.url(), &w.counts, rec)
			defer hc.close()
			for time.Since(start) < d {
				suites := w.mix[c][w.next[c]%len(w.mix[c])]
				w.next[c]++
				opID := w.next[c]*2 + c
				t0 := time.Now()
				err := w.op(hc, opID, suites)
				ms := msSince(t0)
				mu.Lock()
				m.attempted++
				m.lat = append(m.lat, ms)
				if err != nil {
					m.fail("client %d op %v: %v", c, suites, err)
				}
				last = time.Now()
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	m.wall = last.Sub(start)
	cpu1, rss := usage(w.d)
	m.cpu, m.rssMB = cpu1-cpu0, rss
	m.wireBytes = wireBytes(w.d) - wire0
	return m
}

func (w *serviceWL) op(c *httpClient, opID int, suites []string) error {
	op := c.rec.begin("op."+wServiceMix, 0, opID)
	defer c.rec.end(op)
	j, err := runJob(c, op, opID, suites)
	if err != nil {
		return err
	}
	if err := w.ref.checkJobResult(suites, j.Result); err != nil {
		return err
	}
	body, err := readCoverage(c, "service.get_coverage", op, opID)
	if err != nil {
		return err
	}
	return w.ref.checkCoverageBody(body)
}

// ---------------------------------------------------------------- churn

// churnWL is churn_patch: client 1 applies flap deltas, client 2 reads
// the coverage table the whole time.
type churnWL struct {
	oneDaemon
	plan *churnPlan
	pos  int // cycle steps applied so far
}

func (w *churnWL) prepare() (err error) {
	if err = w.prepareRegional(); err != nil {
		return err
	}
	w.plan, err = genChurnPlan(w.in, w.seed)
	return err
}

func (w *churnWL) launch() error {
	if err := w.start(); err != nil {
		return err
	}
	// First pass over the cycle, untimed: it moves the daemon's rule-ID
	// layout to the fixed point the timed documents were diffed against.
	c := newHTTPClient(w.d.url(), &httpCounts{}, nil)
	defer c.close()
	w.pos = 0
	for i, st := range w.plan.warm {
		if err := patch(c, 0, 0, st); err != nil {
			return fmt.Errorf("warm-up flap %d: %w", i, err)
		}
	}
	return nil
}

func (w *churnWL) oracle() error { return w.fullOracle(wChurnPatch) }

// patch applies one document and checks the daemon landed on the
// fingerprint the twin network has.
func patch(c *httpClient, parent, op int, st churnStep) error {
	ex, err := c.do("service.patch_network", parent, op, http.MethodPatch, "/network", st.doc)
	if err == nil {
		err = ex.expect(http.StatusOK)
	}
	if err != nil {
		return fmt.Errorf("PATCH /network: %w", err)
	}
	var applied struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(ex.body, &applied); err != nil {
		return fmt.Errorf("PATCH /network body: %w", err)
	}
	if applied.Fingerprint != st.fp {
		return fmt.Errorf("PATCH /network: daemon at %.12s, twin at %.12s", applied.Fingerprint, st.fp)
	}
	return nil
}

func (w *churnWL) loop(d time.Duration, rec *recorder, _ bool) measured {
	var m measured
	var mu sync.Mutex
	cpu0, _ := usage(w.d)
	wire0 := wireBytes(w.d)
	start := time.Now()
	var last time.Time
	writerDone := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // client 1: the op
		defer wg.Done()
		defer close(writerDone)
		hc := newHTTPClient(w.d.url(), &w.counts, rec)
		defer hc.close()
		for time.Since(start) < d {
			st := w.plan.cycle[w.pos%len(w.plan.cycle)]
			opID := w.pos + 1
			t0 := time.Now()
			op := rec.begin("op."+wChurnPatch, 0, opID)
			err := patch(hc, op, opID, st)
			rec.end(op)
			ms := msSince(t0)
			mu.Lock()
			m.attempted++
			m.lat = append(m.lat, ms)
			if err != nil {
				m.fail("flap %d: %v", w.pos, err)
			}
			last = time.Now()
			mu.Unlock()
			if err != nil {
				return // the chain of base fingerprints is broken
			}
			w.pos++
		}
	}()
	go func() { // client 2: reads beside the writes
		defer wg.Done()
		hc := newHTTPClient(w.d.url(), &w.counts, rec)
		defer hc.close()
		for i := 0; ; i++ {
			select {
			case <-writerDone:
				return
			default:
			}
			_, err := readCoverage(hc, "service.coverage_read", 0, -i-1)
			mu.Lock()
			m.attempted++
			if err != nil {
				m.fail("reader: %v", err)
			}
			mu.Unlock()
		}
	}()
	wg.Wait()
	m.wall = last.Sub(start)
	cpu1, rss := usage(w.d)
	m.cpu, m.rssMB = cpu1-cpu0, rss
	m.wireBytes = wireBytes(w.d) - wire0
	return m
}

// finish checks the table the daemon serves after the last delta
// against a from-scratch rebuild of that network: the twin's encoding
// decoded into a fresh space, with the daemon's own trace decoded
// against it.
func (w *churnWL) finish(m *measured) {
	m.attempted++
	if err := w.finalCheck(); err != nil {
		m.fail("final table: %v", err)
	}
}

func (w *churnWL) finalCheck() error {
	lastStep := w.plan.warm[len(w.plan.warm)-1]
	if w.pos > 0 {
		lastStep = w.plan.cycle[(w.pos-1)%len(w.plan.cycle)]
	}
	c := newHTTPClient(w.d.url(), &httpCounts{}, nil)
	defer c.close()
	body, err := readCoverage(c, "", 0, 0)
	if err != nil {
		return err
	}
	ex, err := c.do("", 0, 0, http.MethodGet, "/trace", nil)
	if err == nil {
		err = ex.expect(http.StatusOK)
	}
	if err != nil {
		return fmt.Errorf("GET /trace: %w", err)
	}
	rebuilt, err := netmodel.DecodeJSON(bytes.NewReader(lastStep.netJSON))
	if err != nil {
		return err
	}
	tr, err := core.DecodeTraceJSON(rebuilt, bytes.NewReader(ex.body))
	if err != nil {
		return fmt.Errorf("daemon trace against rebuilt network: %w", err)
	}
	_, total, byRole, err := coverageRows(rebuilt, tr)
	if err != nil {
		return err
	}
	return (&oracle{total: total, byRole: byRole}).checkCoverageBody(body)
}

// ---------------------------------------------------------------- fleet

// fleetWL is fleet_coord: every op is a yardstick-coord process against
// two warm workers.
type fleetWL struct {
	serviceBase
	ds [2]*daemon
	// Traced ops only: what the tracing transport captured per run, and
	// the coordinator's own dispatch accounting.
	captures              []*fleetCapture
	dispatched, succeeded int
}

func (w *fleetWL) coordArgs() []string {
	return []string{
		"-nodes", w.ds[0].url() + "," + w.ds[1].url(),
		"-net", w.file,
		"-suite", strings.Join(allSuites, ","),
		"-rounds", strconv.Itoa(coordRounds),
		"-concurrency", "2",
		"-poll", pollEvery.String(),
	}
}

func (w *fleetWL) prepare() error { return w.prepareRegional() }

func (w *fleetWL) launch() (err error) {
	for i := range w.ds {
		if w.ds[i], err = startDaemon(w.bins.daemon, w.file); err != nil {
			return err
		}
	}
	// One untimed run: the workers evaluate every suite once, so the
	// timed runs find their op caches warm.
	res, err := runProgram(context.Background(), w.bins.coord, w.coordArgs()...)
	if err != nil {
		return err
	}
	if res.exitCode != 0 {
		return fmt.Errorf("warm-up yardstick-coord: exit %d: %s", res.exitCode, lastLine(res.stderr))
	}
	return nil
}

func (w *fleetWL) shutdown() {
	for i, d := range w.ds {
		d.stop()
		w.ds[i] = nil
	}
}

func (w *fleetWL) oracle() error { return w.fullOracle(wFleetCoord) }

func (w *fleetWL) finish(*measured) {}

func (w *fleetWL) daemons() []*daemon { return w.ds[:] }

// httpStats counts what the tracing transport saw; 429 and 503 are the
// daemon's two shed answers.
func (w *fleetWL) httpStats() (attempts, shed int64) {
	for _, c := range w.captures {
		attempts += int64(c.attempts)
		shed += int64(c.shed)
	}
	return attempts, shed
}

func (w *fleetWL) loop(d time.Duration, rec *recorder, _ bool) measured {
	var m measured
	cpu0, _ := usage(w.ds[:]...)
	wire0 := wireBytes(w.ds[:]...)
	start := time.Now()
	var last time.Time
	for i := 0; time.Since(start) < d; i++ {
		m.attempted++
		if rec != nil {
			t0 := time.Now()
			if err := w.shadowOp(rec, i); err != nil {
				m.fail("traced op %d: %v", i, err)
			}
			m.lat = append(m.lat, msSince(t0))
			last = time.Now()
			continue
		}
		res, err := runProgram(context.Background(), w.bins.coord, w.coordArgs()...)
		last = time.Now()
		switch {
		case err != nil:
			m.fail("op %d: %v", i, err)
		case res.exitCode != 0:
			m.fail("op %d: exit %d: %s", i, res.exitCode, lastLine(append(res.stderr, res.stdout...)))
		case tableFrom(res.stdout) != w.ref.table:
			m.fail("op %d: coverage table differs from oracle", i)
		}
		m.lat = append(m.lat, res.wallMS)
		m.cpu += res.cpu
		m.rssMB = max(m.rssMB, res.rssMB)
	}
	m.wall = last.Sub(start)
	cpu1, rss := usage(w.ds[:]...)
	m.cpu += cpu1 - cpu0
	m.rssMB = max(m.rssMB, rss)
	m.wireBytes = wireBytes(w.ds[:]...) - wire0
	return m
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Microseconds()) / 1000 }

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}
