package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// echoRunner returns the spec's suite string as the result.
func echoRunner(ctx context.Context, spec Spec) (json.RawMessage, error) {
	return json.Marshal(spec.Suites)
}

// waitState polls until the job reaches a terminal state or the
// deadline passes.
func waitTerminal(t *testing.T, q *Queue, id string) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := q.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if j.State.Terminal() {
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return Job{}
}

func TestSubmitRunDone(t *testing.T) {
	q := New(echoRunner, Config{QueueDepth: 4})
	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel(); q.Wait() }()
	q.Start(ctx)

	j, err := q.Submit(Spec{Suites: "default"})
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateQueued || j.ID == "" || j.Submitted.IsZero() {
		t.Fatalf("submit snapshot = %+v", j)
	}
	got := waitTerminal(t, q, j.ID)
	if got.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", got.State, got.Error)
	}
	var suites string
	if err := json.Unmarshal(got.Result, &suites); err != nil || suites != "default" {
		t.Fatalf("result = %q, %v", got.Result, err)
	}
	if got.Started.IsZero() || got.Finished.IsZero() {
		t.Fatalf("timestamps not set: %+v", got)
	}
	st := q.Stats()
	if st.Submitted != 1 || st.Done != 1 || st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFIFOOrder(t *testing.T) {
	var mu []string
	done := make(chan struct{}, 16)
	run := func(ctx context.Context, spec Spec) (json.RawMessage, error) {
		mu = append(mu, spec.Suites) // single worker: no data race
		done <- struct{}{}
		return nil, nil
	}
	q := New(run, Config{QueueDepth: 16})
	var ids []string
	for i := 0; i < 5; i++ {
		j, err := q.Submit(Spec{Suites: fmt.Sprint(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel(); q.Wait() }()
	q.Start(ctx)
	for i := 0; i < 5; i++ {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("jobs did not drain")
		}
	}
	waitTerminal(t, q, ids[4])
	for i, s := range mu {
		if s != fmt.Sprint(i) {
			t.Fatalf("execution order %v, want FIFO", mu)
		}
	}
}

func TestQueueFullSheds(t *testing.T) {
	q := New(echoRunner, Config{QueueDepth: 2}) // worker never started
	if _, err := q.Submit(Spec{}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(Spec{}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(Spec{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit err = %v, want ErrQueueFull", err)
	}
	st := q.Stats()
	if st.ShedFull != 1 || st.Depth != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if !st.Saturated() {
		t.Fatal("full queue not reported saturated")
	}
}

func TestCancelQueued(t *testing.T) {
	q := New(echoRunner, Config{QueueDepth: 2}) // no worker: stays queued
	j, err := q.Submit(Spec{Suites: "x"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := q.Cancel(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled || got.Error == "" || got.Finished.IsZero() {
		t.Fatalf("cancelled snapshot = %+v", got)
	}
	// Cancelling again reports the terminal state.
	if _, err := q.Cancel(j.ID); !errors.Is(err, ErrFinished) {
		t.Fatalf("second cancel err = %v, want ErrFinished", err)
	}
	if _, err := q.Cancel("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown cancel err = %v, want ErrNotFound", err)
	}
	// A cancelled job frees its slot at once: a full queue whose waiting
	// jobs are all cancelled has depth 0, is not saturated, and admits
	// new jobs; a worker started later never runs a cancelled one.
	var ran []string
	q2 := New(func(ctx context.Context, spec Spec) (json.RawMessage, error) {
		ran = append(ran, spec.Suites) // single worker: no data race
		return nil, nil
	}, Config{QueueDepth: 2})
	for i := 0; i < 2; i++ {
		j2, err := q2.Submit(Spec{Suites: "cancelled"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q2.Cancel(j2.ID); err != nil {
			t.Fatal(err)
		}
	}
	if st := q2.Stats(); st.Depth != 0 || st.Saturated() {
		t.Fatalf("after cancelling every queued job: stats = %+v, want depth 0", st)
	}
	kept, err := q2.Submit(Spec{Suites: "kept"})
	if err != nil {
		t.Fatalf("submit after the cancels: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	q2.Start(ctx)
	waitTerminal(t, q2, kept.ID)
	cancel()
	q2.Wait()
	if len(ran) != 1 || ran[0] != "kept" {
		t.Fatalf("runner saw %q, want only the job that was not cancelled", ran)
	}
}

func TestCancelRunning(t *testing.T) {
	started := make(chan struct{})
	run := func(ctx context.Context, spec Spec) (json.RawMessage, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	q := New(run, Config{QueueDepth: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel(); q.Wait() }()
	q.Start(ctx)
	j, err := q.Submit(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := q.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	// Cancel marks the state immediately; the worker finalizes Finished
	// and the counter when the runner unwinds — wait for that.
	var got Job
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		got, _ = q.Get(j.ID)
		if !got.Finished.IsZero() {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got.State != StateCancelled || !strings.Contains(got.Error, "cancelled") || got.Finished.IsZero() {
		t.Fatalf("job = %+v, want finalized cancelled", got)
	}
	if q.Stats().Cancelled != 1 {
		t.Fatalf("cancelled counter = %d", q.Stats().Cancelled)
	}
}

func TestRunTimeout(t *testing.T) {
	run := func(ctx context.Context, spec Spec) (json.RawMessage, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	q := New(run, Config{QueueDepth: 2, RunTimeout: 10 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel(); q.Wait() }()
	q.Start(ctx)
	j, _ := q.Submit(Spec{})
	got := waitTerminal(t, q, j.ID)
	if got.State != StateFailed || !strings.Contains(got.Error, "deadline") {
		t.Fatalf("job = %+v, want failed on deadline", got)
	}
}

func TestPanicIsolatesToJob(t *testing.T) {
	n := atomic.Int64{}
	run := func(ctx context.Context, spec Spec) (json.RawMessage, error) {
		if n.Add(1) == 1 {
			panic("boom")
		}
		return json.RawMessage(`"ok"`), nil
	}
	q := New(run, Config{QueueDepth: 4})
	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel(); q.Wait() }()
	q.Start(ctx)
	j1, _ := q.Submit(Spec{})
	j2, _ := q.Submit(Spec{})
	got1 := waitTerminal(t, q, j1.ID)
	got2 := waitTerminal(t, q, j2.ID)
	if got1.State != StateFailed || !strings.Contains(got1.Error, "boom") {
		t.Fatalf("panicked job = %+v", got1)
	}
	if got2.State != StateDone {
		t.Fatalf("the worker did not survive the panic: %+v", got2)
	}
}

func TestTTLSweep(t *testing.T) {
	q := New(echoRunner, Config{QueueDepth: 4, TTL: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	q.Start(ctx)
	j, _ := q.Submit(Spec{})
	waitTerminal(t, q, j.ID)
	cancel()
	q.Wait()
	if n := q.Sweep(time.Now()); n != 0 {
		t.Fatalf("fresh job swept (%d)", n)
	}
	if n := q.Sweep(time.Now().Add(2 * time.Minute)); n != 1 {
		t.Fatalf("expired sweep removed %d, want 1", n)
	}
	if _, ok := q.Get(j.ID); ok {
		t.Fatal("swept job still retrievable")
	}
}

// TestChaosRestartMidQueue is the package-level restart chaos test: a
// queue with one job done, one running, and one queued is checkpointed
// the way a shutting-down daemon would, then restored into a fresh
// queue — the done job's result survives, the interrupted ones surface
// as failed with an explicit reason.
func TestChaosRestartMidQueue(t *testing.T) {
	block := make(chan struct{})
	running := make(chan struct{}, 1)
	run := func(ctx context.Context, spec Spec) (json.RawMessage, error) {
		if spec.Suites == "slow" {
			running <- struct{}{}
			select {
			case <-block:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return json.Marshal("result:" + spec.Suites)
	}
	q := New(run, Config{QueueDepth: 4})
	ctx, cancel := context.WithCancel(context.Background())
	q.Start(ctx)

	jDone, _ := q.Submit(Spec{Suites: "fast"})
	waitTerminal(t, q, jDone.ID)
	jRun, _ := q.Submit(Spec{Suites: "slow"})
	<-running // the slow job is mid-flight
	jQueued, _ := q.Submit(Spec{Suites: "later"})

	// Daemon shutdown: cancel the worker, wait, then checkpoint. The
	// running job fails on its cancelled context; the queued one is
	// persisted still queued.
	cancel()
	q.Wait()
	close(block)
	recs := q.Records()
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3", len(recs))
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.snap")
	if err := Save(path, "fp-1", recs); err != nil {
		t.Fatal(err)
	}

	// Fingerprint mismatch discards wholesale.
	if _, err := Load(path, "other-network"); !errors.Is(err, ErrMismatch) {
		t.Fatalf("mismatched load err = %v, want ErrMismatch", err)
	}

	// A save that fails (a result that is not JSON cannot be encoded)
	// leaves the previous file byte-identical and no temp file beside it.
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Save(path, "fp-1", []Job{{ID: "bad", Result: json.RawMessage("{")}}); err == nil {
		t.Fatal("Save of an unencodable record succeeded")
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(before, after) {
		t.Fatalf("failed Save changed the previous file (err %v)", err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("directory holds %d entries after a failed Save (err %v), want jobs.snap alone", len(entries), err)
	}

	loaded, err := Load(path, "fp-1")
	if err != nil {
		t.Fatal(err)
	}
	q2 := New(run, Config{QueueDepth: 4})
	recovered, interrupted := q2.Restore(loaded)
	if recovered != 3 {
		t.Fatalf("recovered = %d, want 3", recovered)
	}
	// jQueued was persisted queued; jRun either failed on context
	// cancellation before the checkpoint (settled) or was persisted
	// running and converted by Restore. Either way both must now be
	// terminal failures with a reason.
	if interrupted < 1 {
		t.Fatalf("interrupted = %d, want >= 1", interrupted)
	}

	got, ok := q2.Get(jDone.ID)
	if !ok || got.State != StateDone {
		t.Fatalf("done job not recovered: %+v ok=%v", got, ok)
	}
	var res string
	if err := json.Unmarshal(got.Result, &res); err != nil || res != "result:fast" {
		t.Fatalf("recovered result = %q, %v", got.Result, err)
	}
	for _, id := range []string{jRun.ID, jQueued.ID} {
		j, ok := q2.Get(id)
		if !ok {
			t.Fatalf("job %s lost across restart", id)
		}
		if j.State != StateFailed && j.State != StateCancelled {
			t.Fatalf("interrupted job %s = %+v, want failed-with-reason", id, j)
		}
		if j.Error == "" {
			t.Fatalf("interrupted job %s has no reason", id)
		}
	}
	if jq, _ := q2.Get(jQueued.ID); jq.Error != ErrInterrupted {
		t.Fatalf("queued-at-shutdown job reason = %q, want %q", jq.Error, ErrInterrupted)
	}

	// Restoring the same records again is a no-op (live view wins).
	if n, _ := q2.Restore(loaded); n != 0 {
		t.Fatalf("double restore recovered %d, want 0", n)
	}
}

func TestLoadMissingFile(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "absent.snap"), "fp")
	if err == nil {
		t.Fatal("expected error for a missing file")
	}
}

// TestLoadDropsOnlyStoredWorkers: a stored spec's "workers" key, which
// records from before the server owned the worker count carry, loads and
// is dropped; any other unknown key still fails the load.
func TestLoadDropsOnlyStoredWorkers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.snap")
	load := func(spec string) ([]Job, error) {
		t.Helper()
		rec := `{"fingerprint":"fp","jobs":[{"id":"a","spec":` + spec + `,"state":"done"}]}`
		if err := os.WriteFile(path, []byte(rec), 0o600); err != nil {
			t.Fatal(err)
		}
		return Load(path, "fp")
	}
	js, err := load(`{"suites":"default","workers":2,"runId":"r1"}`)
	if err != nil || len(js) != 1 || js[0].Spec != (Spec{Suites: "default", RunID: "r1"}) {
		t.Fatalf("Load = %+v, %v; want the spec without its worker count", js, err)
	}
	if _, err := load(`{"suites":"default","threads":2}`); err == nil {
		t.Error("Load accepted an unknown spec key")
	}
}
