package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"yardstick/internal/client"
	"yardstick/internal/jobs"
	"yardstick/internal/promlint"
	"yardstick/internal/service"
)

// startDaemon runs the daemon in a goroutine and returns its base URL
// and a stop function that cancels (the test stand-in for SIGINT/
// SIGTERM — main wires the same cancellation through
// signal.NotifyContext) and waits for a clean exit.
func startDaemon(t *testing.T, args []string) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, args, io.Discard, io.Discard, func(addr string) { addrc <- addr })
	}()
	var addr string
	select {
	case addr = <-addrc:
	case err := <-errc:
		cancel()
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		cancel()
		t.Fatal("daemon never became ready")
	}
	stop := func() error {
		cancel()
		select {
		case err := <-errc:
			return err
		case <-time.After(30 * time.Second):
			t.Fatal("daemon did not exit after cancellation")
			return nil
		}
	}
	return "http://" + addr, stop
}

// call sends one request to the daemon and returns the response body,
// failing the test unless the status is want.
func call(t *testing.T, method, url string, body []byte, want int) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != want {
		t.Fatalf("%s %s = %d (%s), want %d", method, url, resp.StatusCode, bytes.TrimSpace(data), want)
	}
	return data
}

// runDefault runs the default suite as a job and waits until it is done.
func runDefault(t *testing.T, base string) {
	t.Helper()
	ctx := context.Background()
	c := client.New(base)
	j, err := c.SubmitJob(ctx, "default")
	if err != nil {
		t.Fatal(err)
	}
	if j, err = c.WaitJob(ctx, j.ID, 5*time.Millisecond); err != nil || j.State != jobs.StateDone {
		t.Fatalf("default job = (%+v, %v), want done", j, err)
	}
}

func TestGracefulShutdown(t *testing.T) {
	base, stop := startDaemon(t, []string{"-listen", "127.0.0.1:0", "-topology", "example"})

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d", resp.StatusCode)
	}
	resp, err = http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz with preloaded topology = %d", resp.StatusCode)
	}

	// An in-flight request is drained, not severed: a POST /trace whose
	// body is still streaming when shutdown begins completes with 200.
	frag := call(t, http.MethodGet, base+"/trace", nil, http.StatusOK)
	pr, pw := io.Pipe()
	inflight := make(chan error, 1)
	go func() {
		resp, err := http.Post(base+"/trace", "application/json", pr)
		if err != nil {
			inflight <- err
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			inflight <- fmt.Errorf("in-flight POST /trace = %d, want 200", resp.StatusCode)
			return
		}
		inflight <- nil
	}()
	if _, err := pw.Write(frag[:1]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let the request reach the server

	stopped := make(chan error, 1)
	go func() { stopped <- stop() }()
	// The drain has begun once the listener refuses a fresh connection;
	// only then does the rest of the body go out.
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := probe.Get(base + "/healthz")
		if err != nil {
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("the listener never closed")
		}
	}
	if _, err := pw.Write(frag[1:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()

	if err := <-stopped; err != nil {
		t.Fatalf("shutdown after signal: %v", err)
	}
	if err := <-inflight; err != nil {
		t.Errorf("in-flight request during drain: %v", err)
	}

	// The listener is really gone.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server still answering after shutdown")
	}
}

// TestSnapshotSurvivesRestart accumulates trace state, shuts the daemon
// down, restarts it on the same snapshot file, and expects coverage to
// carry over.
func TestSnapshotSurvivesRestart(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "trace.snap")
	args := []string{"-listen", "127.0.0.1:0", "-topology", "example", "-snapshot", snap}

	base, stop := startDaemon(t, args)

	// Accumulate coverage server-side, then shut down: the final
	// checkpoint must persist it.
	runDefault(t, base)
	var cov, cov2 service.CoverageReport
	if err := json.Unmarshal(call(t, http.MethodGet, base+"/coverage", nil, http.StatusOK), &cov); err != nil {
		t.Fatal(err)
	}
	if cov.Total.RuleFractional <= 0 {
		t.Fatal("no coverage accumulated before restart")
	}
	if err := stop(); err != nil {
		t.Fatalf("first shutdown: %v", err)
	}

	// Restart on the same snapshot: coverage is recovered.
	base2, stop2 := startDaemon(t, args)
	defer stop2()
	if err := json.Unmarshal(call(t, http.MethodGet, base2+"/coverage", nil, http.StatusOK), &cov2); err != nil {
		t.Fatal(err)
	}
	if cov2.Total.RuleFractional != cov.Total.RuleFractional {
		t.Errorf("coverage after restart = %v, want %v", cov2.Total.RuleFractional, cov.Total.RuleFractional)
	}
}

// TestStaleSnapshotDiscarded restarts on a different topology: the
// snapshot's fingerprint no longer matches, so it must be discarded.
func TestStaleSnapshotDiscarded(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "trace.snap")

	base, stop := startDaemon(t, []string{"-listen", "127.0.0.1:0", "-topology", "example", "-snapshot", snap})
	runDefault(t, base)
	if err := stop(); err != nil {
		t.Fatal(err)
	}

	base2, stop2 := startDaemon(t, []string{"-listen", "127.0.0.1:0", "-topology", "fattree", "-k", "4", "-snapshot", snap})
	defer stop2()
	var cov service.CoverageReport
	if err := json.Unmarshal(call(t, http.MethodGet, base2+"/coverage", nil, http.StatusOK), &cov); err != nil {
		t.Fatal(err)
	}
	if cov.Total.RuleFractional != 0 {
		t.Errorf("coverage on new topology = %v, want 0 (stale snapshot discarded)", cov.Total.RuleFractional)
	}
}

// TestJobsSurviveRestart is the durable-async chaos check: kill the
// daemon with a queue full of work, restart it on the same snapshot,
// and every job must be accounted for — finished results still
// fetchable, everything caught mid-flight failed with an explicit
// reason, nothing silently lost.
func TestJobsSurviveRestart(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "trace.snap")
	// A k=12 fat-tree makes each reach+pingmesh job take ~700ms of
	// symbolic work: the backlog below is several seconds deep, so the
	// shutdown deterministically catches jobs queued and running.
	args := []string{"-listen", "127.0.0.1:0", "-topology", "fattree", "-k", "12", "-snapshot", snap}

	base, stop := startDaemon(t, args)
	c := client.New(base)
	ctx := context.Background()

	// One quick job to completion, then a backlog of heavy ones the
	// single worker cannot possibly finish before the shutdown. The
	// backlog is submitted at once: each POST holds its answer while its
	// job may finish, so one submit after another would never let the
	// queue fill.
	first, err := c.SubmitJob(ctx, "default", "internal")
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{first.ID}
	backlog := make([]string, 10)
	errs := make([]error, len(backlog))
	var wg sync.WaitGroup
	for i := range backlog {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err := c.SubmitJob(ctx, "reach", "pingmesh")
			backlog[i], errs[i] = j.ID, err
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	ids = append(ids, backlog...)
	done, err := c.WaitJob(ctx, first.ID, 5*time.Millisecond)
	if err != nil || done.State != jobs.StateDone {
		t.Fatalf("first job = (%+v, %v), want done", done, err)
	}
	if err := stop(); err != nil {
		t.Fatalf("shutdown with queued jobs: %v", err)
	}

	// Restart on the same snapshot: the finished job's result survives.
	base2, stop2 := startDaemon(t, args)
	defer stop2()
	var got service.JobStatus
	if err := json.Unmarshal(call(t, http.MethodGet, base2+"/jobs/"+first.ID, nil, http.StatusOK), &got); err != nil {
		t.Fatal(err)
	}
	if got.State != jobs.StateDone || len(got.Result) == 0 {
		t.Fatalf("recovered job = %+v, want done with result", got)
	}
	var results []service.RunResult
	if err := json.Unmarshal(got.Result, &results); err != nil || len(results) != 2 {
		t.Fatalf("recovered result = (%d tests, %v), want 2", len(results), err)
	}

	// Every submitted job is accounted for: done with a result, or
	// failed with a stated reason. Nothing vanished, nothing is stuck
	// non-terminal.
	failed := 0
	for _, id := range ids {
		var j service.JobStatus
		if err := json.Unmarshal(call(t, http.MethodGet, base2+"/jobs/"+id, nil, http.StatusOK), &j); err != nil {
			t.Fatal(err)
		}
		switch j.State {
		case jobs.StateDone:
			if len(j.Result) == 0 {
				t.Errorf("job %s done without result", id)
			}
		case jobs.StateFailed:
			failed++
			if j.Error == "" {
				t.Errorf("job %s failed without a reason", id)
			}
		default:
			t.Errorf("job %s = %s after restart, want terminal", id, j.State)
		}
	}
	if failed == 0 {
		t.Error("no job was interrupted — the chaos scenario did not exercise recovery")
	}
}

// TestPprofListener: -pprof-addr brings up the profiling surface on its
// own listener, never on the service port.
func TestPprofListener(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout bytes.Buffer
	addrc := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, []string{"-listen", "127.0.0.1:0", "-topology", "example", "-pprof-addr", "127.0.0.1:0"},
			&stdout, io.Discard, func(addr string) { addrc <- addr })
	}()
	var addr string
	select {
	case addr = <-addrc:
	case err := <-errc:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}

	// The pprof line is printed before onReady fires, so stdout has it.
	var pprofAddr string
	for _, line := range strings.Split(stdout.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "pprof listening on "); ok {
			pprofAddr = rest
		}
	}
	if pprofAddr == "" {
		t.Fatalf("pprof address not announced:\n%s", stdout.String())
	}

	resp, err := http.Get("http://" + pprofAddr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index = %d, want 200", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte("goroutine")) {
		t.Error("pprof index does not list profiles")
	}

	// The service port must NOT expose pprof.
	resp, err = http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("service port must not serve pprof")
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Errorf("daemon exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit")
	}
}

// TestShedStorm holds the admission contract under overload: a daemon
// with a deliberately tiny envelope (4 admitted requests, 8 queued
// jobs), stormed with heavy eight-suite jobs, answers every submit with
// 202 or with a 429/503 shed carrying a positive integer Retry-After —
// never another status, never a dropped connection. The storm opens
// with a burst of more submits than the daemon can hold at once
// (max-inflight + queue-depth + a running job), released together, so
// sheds happen however fast the host drains jobs; it then runs open
// loop at 250 RPS for 2 s, a tick that finds every slot busy skipped.
// Afterwards the shed counter agrees with the sheds seen, /metrics is
// clean exposition, and every accepted job finishes.
func TestShedStorm(t *testing.T) {
	const (
		suites = "default,connected,internal,agg,contract,reach,pingmesh,host"
		burst  = 32 // > max-inflight + queue-depth + 1
		rate   = 250
		storm  = 2 * time.Second
		slots  = 64 // outstanding requests, and so goroutines
	)
	base, stop := startDaemon(t, []string{"-listen", "127.0.0.1:0", "-topology", "regional",
		"-queue-depth", "8", "-max-inflight", "4"})
	tr := &http.Transport{MaxIdleConnsPerHost: slots}
	hc := &http.Client{Transport: tr, Timeout: time.Minute}
	defer func() {
		// A connection the transport dialed but never used would hold
		// the drain for its first 5 s (net/http counts it active).
		tr.CloseIdleConnections()
		if err := stop(); err != nil {
			t.Errorf("shutdown after the storm: %v", err)
		}
	}()

	var (
		mu                   sync.Mutex
		accepted, violations []string
		sheds                int
	)
	submit := func() {
		resp, err := hc.Post(base+"/jobs?suite="+suites, "", nil)
		if err != nil {
			mu.Lock()
			violations = append(violations, err.Error())
			mu.Unlock()
			return
		}
		defer resp.Body.Close()
		var j service.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&j)
		ra := resp.Header.Get("Retry-After")
		mu.Lock()
		defer mu.Unlock()
		switch resp.StatusCode {
		case http.StatusAccepted:
			if err != nil || j.ID == "" {
				violations = append(violations, fmt.Sprintf("202 without a job (%v)", err))
				return
			}
			accepted = append(accepted, j.ID)
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if n, err := strconv.Atoi(ra); err != nil || n <= 0 {
				violations = append(violations, fmt.Sprintf("%d with Retry-After %q", resp.StatusCode, ra))
				return
			}
			sheds++
		default:
			violations = append(violations, fmt.Sprintf("status %d", resp.StatusCode))
		}
	}

	sem := make(chan struct{}, slots)
	var wg sync.WaitGroup
	launch := func(start <-chan struct{}) {
		select {
		case sem <- struct{}{}:
		default:
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			<-start
			submit()
		}()
	}
	// The burst waits on release; every later launch finds it closed.
	release := make(chan struct{})
	for range burst {
		launch(release)
	}
	close(release)
	tick := time.NewTicker(time.Second / rate)
	for end := time.Now().Add(storm); time.Now().Before(end); {
		<-tick.C
		launch(release)
	}
	tick.Stop()
	wg.Wait()

	if len(violations) > 0 {
		t.Errorf("%d answers broke the admission contract, first: %s", len(violations), violations[0])
	}
	t.Logf("accepted %d, shed %d", len(accepted), sheds)
	if len(accepted) == 0 || sheds == 0 {
		t.Fatalf("accepted %d, shed %d: the storm must see both", len(accepted), sheds)
	}

	metrics := call(t, http.MethodGet, base+"/metrics", nil, http.StatusOK)
	if issues := promlint.Lint(bytes.NewReader(metrics)); len(issues) > 0 {
		t.Errorf("/metrics after the storm: %v", issues)
	}
	counted := 0.0
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.HasPrefix(line, "yardstick_http_shed_total{") {
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				t.Fatalf("shed sample %q: %v", line, err)
			}
			counted += v
		}
	}
	if counted != float64(sheds) {
		t.Errorf("yardstick_http_shed_total sums to %v, the storm saw %d sheds", counted, sheds)
	}

	c := client.New(base)
	for _, id := range accepted {
		if j, err := c.WaitJob(context.Background(), id, 10*time.Millisecond); err != nil || j.State != jobs.StateDone {
			t.Errorf("accepted job %s = (%s %s, %v), want done", id, j.State, j.Error, err)
		}
	}
}
