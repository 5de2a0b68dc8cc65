package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"yardstick/internal/client"
	"yardstick/internal/jobs"
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

	// An in-flight request started just before shutdown is drained, not
	// severed: fire a suite run concurrently with the cancellation.
	inflight := make(chan error, 1)
	go func() {
		resp, err := http.Post(base+"/run?suite=default", "", nil)
		if err != nil {
			inflight <- err
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			inflight <- fmt.Errorf("in-flight run = %d, want 200", resp.StatusCode)
			return
		}
		inflight <- nil
	}()
	time.Sleep(10 * time.Millisecond) // let the request reach the server

	if err := stop(); err != nil {
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
	call(t, http.MethodPost, base+"/run?suite=default", nil, http.StatusOK)
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
	call(t, http.MethodPost, base+"/run?suite=default", nil, http.StatusOK)
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
	// single worker cannot possibly finish before the shutdown.
	first, err := c.SubmitJob(ctx, "default", "internal")
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{first.ID}
	for range 10 {
		j, err := c.SubmitJob(ctx, "reach", "pingmesh")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
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
